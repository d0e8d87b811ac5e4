package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Reps is the default number of repetitions per measurement (the paper uses
// five and reports the median).
const Reps = 3

// Median runs fn reps times and returns the median duration.
func Median(reps int, fn func() time.Duration) time.Duration {
	if reps <= 0 {
		reps = Reps
	}
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = fn()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// Series is one line of a figure: a system measured across the sweep.
type Series struct {
	System string
	Points []time.Duration
}

// Figure accumulates sweep results and renders them.
type Figure struct {
	Title  string
	XLabel string
	XTicks []string
	Series []*Series
}

// NewFigure creates a figure for the given sweep ticks.
func NewFigure(title, xlabel string, ticks ...string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, XTicks: ticks}
}

// Add appends a measurement to the named system's series.
func (f *Figure) Add(system string, d time.Duration) {
	for _, s := range f.Series {
		if s.System == system {
			s.Points = append(s.Points, d)
			return
		}
	}
	f.Series = append(f.Series, &Series{System: system, Points: []time.Duration{d}})
}

// Render writes the figure as an aligned table (milliseconds).
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", f.Title)
	width := len(f.XLabel)
	for _, t := range f.XTicks {
		if len(t) > width {
			width = len(t)
		}
	}
	fmt.Fprintf(w, "%-*s", width+2, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%14s", s.System)
	}
	fmt.Fprintln(w)
	for i, tick := range f.XTicks {
		fmt.Fprintf(w, "%-*s", width+2, tick)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(w, "%12.3fms", float64(s.Points[i].Microseconds())/1000)
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
