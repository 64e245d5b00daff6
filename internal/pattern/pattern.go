// Package pattern analyzes the production/consumption memory-access
// patterns recorded by the tracer, reproducing Section V.A of the paper:
// the scatter plots of Figure 5 and the statistics of Table II.
//
// Definitions follow the paper: one *production interval* of a buffer is
// the time between two consecutive sends of that buffer; during it every
// store to the buffer is recorded with its relative time. One *consumption
// interval* is the period between two consecutive receives of the same
// buffer; during it every load is recorded. Tracked collective markers
// (EvCollSend/EvCollRecv) delimit intervals the same way, which is how the
// Alya reduction buffers are measured.
package pattern

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/tracer"
)

// Side selects production (stores before sends) or consumption (loads
// after receives).
type Side uint8

// Sides of the analysis.
const (
	Production Side = iota
	Consumption
)

// String names the side.
func (s Side) String() string {
	if s == Production {
		return "production"
	}
	return "consumption"
}

// ProductionStats is one row of Table II(a): the percent of the production
// interval needed to produce the first element, the first quarter, the
// first half, and the whole message (final versions, averaged over
// intervals).
type ProductionStats struct {
	FirstElem float64
	Quarter   float64
	Half      float64
	Whole     float64
	// Intervals is how many (rank, buffer, interval) instances were
	// averaged.
	Intervals int
	// Chunkable is false when every measured buffer has a single
	// element, so no partial message exists (the Alya case); then only
	// FirstElem is meaningful and the others are NaN.
	Chunkable bool
}

// ConsumptionStats is one row of Table II(b): the percent of the
// consumption phase that can be passed upon reception of nothing, of the
// first quarter, and of the first half of the message.
type ConsumptionStats struct {
	Nothing   float64
	Quarter   float64
	Half      float64
	Intervals int
	Chunkable bool
}

// Analysis aggregates the pattern statistics of one traced run.
type Analysis struct {
	// App is the run name.
	App string
	// Production/Consumption hold per-buffer statistics keyed by the
	// array name given at NewArray, aggregated across ranks.
	Production  map[string]*ProductionStats
	Consumption map[string]*ConsumptionStats
	// AppProduction/AppConsumption aggregate over all tracked buffers,
	// the numbers Table II reports per application.
	AppProduction  ProductionStats
	AppConsumption ConsumptionStats
}

type accessRec struct {
	t   int64
	idx int
}

type bufferTrack struct {
	name      string
	n         int
	sendMarks []int64
	recvMarks []int64
	stores    []accessRec
	loads     []accessRec
}

// collectTracks extracts every rank's tracks (rankTracks) from the run.
func collectTracks(run *tracer.Run) [][]*bufferTrack {
	out := make([][]*bufferTrack, run.NumRanks)
	for rank, log := range run.Logs {
		out[rank] = rankTracks(log)
	}
	return out
}

// rankTracks extracts one rank's per-array communication marks and access
// lists from its log. A first walk of the log counts the accesses per
// array, so the lists are allocated once at their exact size.
func rankTracks(log *tracer.Log) []*bufferTrack {
	stores := make([]int, len(log.ArrayLens))
	loads := make([]int, len(log.ArrayLens))
	for _, e := range log.Events() {
		switch e.Kind {
		case tracer.EvStore:
			stores[e.Arr()]++
		case tracer.EvLoad:
			loads[e.Arr()]++
		}
	}
	tracks := make([]*bufferTrack, len(log.ArrayLens))
	for id := range tracks {
		tracks[id] = &bufferTrack{
			name: log.ArrayNames[id], n: log.ArrayLens[id],
			stores: make([]accessRec, 0, stores[id]),
			loads:  make([]accessRec, 0, loads[id]),
		}
	}
	for _, e := range log.Events() {
		switch e.Kind {
		case tracer.EvSend, tracer.EvISend, tracer.EvCollSend:
			tracks[e.Arr()].sendMarks = append(tracks[e.Arr()].sendMarks, e.T)
		case tracer.EvRecv, tracer.EvRecvWait, tracer.EvCollRecv:
			// For non-blocking receives the data becomes available
			// at the completion wait, so that is the interval mark.
			tracks[e.Arr()].recvMarks = append(tracks[e.Arr()].recvMarks, e.T)
		case tracer.EvStore:
			tracks[e.Arr()].stores = append(tracks[e.Arr()].stores, accessRec{t: e.T, idx: e.Idx()})
		case tracer.EvLoad:
			tracks[e.Arr()].loads = append(tracks[e.Arr()].loads, accessRec{t: e.T, idx: e.Idx()})
		}
	}
	return tracks
}

// orderStat returns the k-th smallest value (k is 1-based) of a sorted
// slice.
func orderStat(sorted []float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// productionIntervalStats computes the per-interval order statistics of
// final-version store times. Returns ok=false when the interval has no
// stores (nothing was produced: the interval carries no information).
func productionIntervalStats(tk *bufferTrack, stores []accessRec, start, end int64) (first, quarter, half, whole float64, ok bool) {
	if len(stores) == 0 || end <= start {
		return 0, 0, 0, 0, false
	}
	final := make([]int64, tk.n)
	touched := make([]bool, tk.n)
	for _, a := range stores {
		if a.idx >= 0 && a.idx < tk.n {
			if !touched[a.idx] || a.t > final[a.idx] {
				final[a.idx] = a.t
				touched[a.idx] = true
			}
		}
	}
	l := float64(end - start)
	rel := make([]float64, 0, tk.n)
	for i := 0; i < tk.n; i++ {
		if touched[i] {
			rel = append(rel, 100*float64(final[i]-start)/l)
		} else {
			// Untouched elements were ready when the interval began.
			rel = append(rel, 0)
		}
	}
	sort.Float64s(rel)
	n := len(rel)
	first = rel[0]
	quarter = orderStat(rel, (n+3)/4)
	half = orderStat(rel, (n+1)/2)
	whole = rel[n-1]
	return first, quarter, half, whole, true
}

// consumptionIntervalStats computes how far into the interval execution
// can progress given prefixes of the message. Returns ok=false when the
// interval has no loads at all (the buffer was not consumed).
func consumptionIntervalStats(tk *bufferTrack, loads []accessRec, start, end int64) (nothing, quarter, half float64, ok bool) {
	if len(loads) == 0 || end <= start {
		return 0, 0, 0, false
	}
	l := float64(end - start)
	qIdx := (tk.n + 3) / 4 // first element index beyond the first quarter
	hIdx := (tk.n + 1) / 2
	firstAny := int64(math.MaxInt64)
	firstBeyondQ := int64(math.MaxInt64)
	firstBeyondH := int64(math.MaxInt64)
	for _, a := range loads {
		if a.t < firstAny {
			firstAny = a.t
		}
		if a.idx >= qIdx && a.t < firstBeyondQ {
			firstBeyondQ = a.t
		}
		if a.idx >= hIdx && a.t < firstBeyondH {
			firstBeyondH = a.t
		}
	}
	toPct := func(t int64) float64 {
		if t == math.MaxInt64 {
			return 100 // never needed: the whole phase is passable
		}
		return 100 * float64(t-start) / l
	}
	return toPct(firstAny), toPct(firstBeyondQ), toPct(firstBeyondH), true
}

// accum averages interval statistics.
type accum struct {
	first, quarter, half, whole float64
	n                           int
	anyMulti                    bool // any buffer with >1 element
}

func (a *accum) addProd(f, q, h, w float64, multi bool) {
	a.first += f
	a.quarter += q
	a.half += h
	a.whole += w
	a.n++
	a.anyMulti = a.anyMulti || multi
}

func (a *accum) prodStats() ProductionStats {
	if a.n == 0 {
		return ProductionStats{Chunkable: false, FirstElem: math.NaN(), Quarter: math.NaN(), Half: math.NaN(), Whole: math.NaN()}
	}
	s := ProductionStats{
		FirstElem: a.first / float64(a.n),
		Quarter:   a.quarter / float64(a.n),
		Half:      a.half / float64(a.n),
		Whole:     a.whole / float64(a.n),
		Intervals: a.n,
		Chunkable: a.anyMulti,
	}
	if !s.Chunkable {
		s.Quarter, s.Half, s.Whole = math.NaN(), math.NaN(), math.NaN()
	}
	return s
}

func (a *accum) consStats() ConsumptionStats {
	if a.n == 0 {
		return ConsumptionStats{Nothing: math.NaN(), Quarter: math.NaN(), Half: math.NaN()}
	}
	s := ConsumptionStats{
		Nothing:   a.first / float64(a.n),
		Quarter:   a.quarter / float64(a.n),
		Half:      a.half / float64(a.n),
		Intervals: a.n,
		Chunkable: a.anyMulti,
	}
	if !s.Chunkable {
		s.Quarter, s.Half = math.NaN(), math.NaN()
	}
	return s
}

// Analyze computes the Table II statistics for one traced run.
func Analyze(run *tracer.Run) *Analysis {
	an := &Analysis{
		App:         run.Name,
		Production:  map[string]*ProductionStats{},
		Consumption: map[string]*ConsumptionStats{},
	}
	prodAcc := map[string]*accum{}
	consAcc := map[string]*accum{}
	var appProd, appCons accum
	for _, tracks := range collectTracks(run) {
		for _, tk := range tracks {
			// Production intervals: between consecutive sends.
			si := 0
			for j := 1; j < len(tk.sendMarks); j++ {
				start, end := tk.sendMarks[j-1], tk.sendMarks[j]
				for si < len(tk.stores) && tk.stores[si].t <= start {
					si++
				}
				k := si
				for k < len(tk.stores) && tk.stores[k].t <= end {
					k++
				}
				if f, q, h, w, ok := productionIntervalStats(tk, tk.stores[si:k], start, end); ok {
					acc := prodAcc[tk.name]
					if acc == nil {
						acc = &accum{}
						prodAcc[tk.name] = acc
					}
					acc.addProd(f, q, h, w, tk.n > 1)
					appProd.addProd(f, q, h, w, tk.n > 1)
				}
			}
			// Consumption intervals: between consecutive receives.
			li := 0
			for j := 0; j+1 < len(tk.recvMarks); j++ {
				start, end := tk.recvMarks[j], tk.recvMarks[j+1]
				for li < len(tk.loads) && tk.loads[li].t <= start {
					li++
				}
				k := li
				for k < len(tk.loads) && tk.loads[k].t <= end {
					k++
				}
				if nth, q, h, ok := consumptionIntervalStats(tk, tk.loads[li:k], start, end); ok {
					acc := consAcc[tk.name]
					if acc == nil {
						acc = &accum{}
						consAcc[tk.name] = acc
					}
					acc.addProd(nth, q, h, 0, tk.n > 1)
					appCons.addProd(nth, q, h, 0, tk.n > 1)
				}
			}
		}
	}
	for name, acc := range prodAcc {
		s := acc.prodStats()
		an.Production[name] = &s
	}
	for name, acc := range consAcc {
		s := acc.consStats()
		an.Consumption[name] = &s
	}
	an.AppProduction = appProd.prodStats()
	an.AppConsumption = appCons.consStats()
	return an
}

// ---------------------------------------------------------------------------
// Figure 5: scatter datasets

// Point is one access in a normalized interval: RelT in [0,1] is the
// relative time within the interval, Elem the element offset in the buffer.
type Point struct {
	RelT float64
	Elem int
}

// Scatter is the Figure 5 dataset of one buffer and side: every access of
// every interval overlaid on the normalized interval.
type Scatter struct {
	App       string
	Buffer    string
	Side      Side
	BufferLen int
	Intervals int
	Points    []Point
}

// ScatterFor extracts the scatter dataset of the named buffer on one rank.
// It returns nil when the rank never communicates that buffer.
func ScatterFor(run *tracer.Run, bufferName string, rank int, side Side) *Scatter {
	if rank < 0 || rank >= run.NumRanks {
		return nil
	}
	var tk *bufferTrack
	for _, cand := range rankTracks(run.Logs[rank]) {
		if cand.name == bufferName {
			tk = cand
			break
		}
	}
	if tk == nil {
		return nil
	}
	sc := &Scatter{App: run.Name, Buffer: bufferName, Side: side, BufferLen: tk.n}
	marks, accesses := tk.sendMarks, tk.stores
	if side == Consumption {
		marks, accesses = tk.recvMarks, tk.loads
	}
	for j := 1; j < len(marks); j++ {
		sc.appendInterval(accesses, marks[j-1], marks[j])
	}
	return sc
}

func (sc *Scatter) appendInterval(accesses []accessRec, start, end int64) {
	if end <= start {
		return
	}
	added := false
	for _, a := range accesses {
		if a.t > start && a.t <= end {
			sc.Points = append(sc.Points, Point{
				RelT: float64(a.t-start) / float64(end-start),
				Elem: a.idx,
			})
			added = true
		}
	}
	if added {
		sc.Intervals++
	}
}

// WriteCSV emits "rel_time,element" rows.
func (sc *Scatter) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s %s of buffer %q (%d elements, %d intervals)\nrel_time,element\n",
		sc.App, sc.Side, sc.Buffer, sc.BufferLen, sc.Intervals); err != nil {
		return err
	}
	for _, p := range sc.Points {
		if _, err := fmt.Fprintf(w, "%.6f,%d\n", p.RelT, p.Elem); err != nil {
			return err
		}
	}
	return nil
}

// ASCII renders the scatter as a width x height character grid, x = relative
// time within the interval, y = element offset (top = last element), the
// same axes as Figure 5.
func (sc *Scatter) ASCII(width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	maxElem := sc.BufferLen - 1
	if maxElem < 1 {
		maxElem = 1
	}
	for _, p := range sc.Points {
		x := int(p.RelT * float64(width-1))
		y := height - 1 - int(float64(p.Elem)/float64(maxElem)*float64(height-1))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		grid[y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s of %q: element offset (y) vs relative interval time (x)\n",
		sc.App, sc.Side, sc.Buffer)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("\n 0%")
	b.WriteString(strings.Repeat(" ", width-7))
	b.WriteString("100%\n")
	return b.String()
}

// FormatTableII renders production and consumption rows in the layout of
// Table II, with the ideal row included for reference.
func FormatTableII(rows []*Analysis) string {
	var b strings.Builder
	b.WriteString("(a) Potential for advancing sends — % of production phase to produce a part of a message\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n", "app", "1st element", "quarter", "half", "whole")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n", "ideal", "0%", "25%", "50%", "100%")
	for _, an := range rows {
		p := an.AppProduction
		fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n", an.App,
			pct(p.FirstElem), pct(p.Quarter), pct(p.Half), pct(p.Whole))
	}
	b.WriteString("\n(b) Potential for post-postponing receptions — % of consumption phase passable upon reception of a part\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "app", "nothing", "quarter", "half")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "ideal", "0%", "25%", "50%")
	for _, an := range rows {
		c := an.AppConsumption
		fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", an.App,
			pct(c.Nothing), pct(c.Quarter), pct(c.Half))
	}
	return b.String()
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", v)
}
