package paraver

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Additional analysis views in the spirit of Paraver's configurable
// windows: the communication matrix, per-state time histograms, and a
// time-sliced parallel-efficiency profile.

// CommMatrix aggregates the traffic of one replay into a src x dst matrix.
type CommMatrix struct {
	Ranks    int
	Bytes    [][]int64 // [src][dst]
	Messages [][]int   // [src][dst]
}

// CommMatrixOf builds the communication matrix of a result.
func CommMatrixOf(res *sim.Result) *CommMatrix {
	n := len(res.Ranks)
	m := &CommMatrix{Ranks: n, Bytes: make([][]int64, n), Messages: make([][]int, n)}
	for i := 0; i < n; i++ {
		m.Bytes[i] = make([]int64, n)
		m.Messages[i] = make([]int, n)
	}
	for _, c := range res.Comms {
		if c.Src >= 0 && c.Src < n && c.Dst >= 0 && c.Dst < n {
			m.Bytes[c.Src][c.Dst] += c.Bytes
			m.Messages[c.Src][c.Dst]++
		}
	}
	return m
}

// TotalBytes sums all traffic.
func (m *CommMatrix) TotalBytes() int64 {
	var s int64
	for i := range m.Bytes {
		for j := range m.Bytes[i] {
			s += m.Bytes[i][j]
		}
	}
	return s
}

// Format renders the byte matrix with a density glyph per cell (".", "+",
// "#", scaled to the maximum cell) plus exact totals per rank — compact
// enough for dozens of ranks.
func (m *CommMatrix) Format() string {
	var max int64
	for i := range m.Bytes {
		for j := range m.Bytes[i] {
			if m.Bytes[i][j] > max {
				max = m.Bytes[i][j]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "communication matrix (%d ranks, %d B total; rows send, cols receive)\n", m.Ranks, m.TotalBytes())
	b.WriteString("      ")
	for j := 0; j < m.Ranks; j++ {
		fmt.Fprintf(&b, "%d", j%10)
	}
	b.WriteString("   bytes-out\n")
	for i := 0; i < m.Ranks; i++ {
		fmt.Fprintf(&b, "P%-4d ", i)
		var rowSum int64
		for j := 0; j < m.Ranks; j++ {
			v := m.Bytes[i][j]
			rowSum += v
			switch {
			case v == 0:
				b.WriteByte(' ')
			case max > 0 && v*3 <= max:
				b.WriteByte('.')
			case max > 0 && v*3 <= 2*max:
				b.WriteByte('+')
			default:
				b.WriteByte('#')
			}
		}
		fmt.Fprintf(&b, "   %d\n", rowSum)
	}
	return b.String()
}

// Histogram is the distribution of one quantity over fixed bins.
type Histogram struct {
	Label  string
	Edges  []float64 // len(Counts)+1 ascending bin edges
	Counts []int
}

// WaitHistogram bins the per-wait durations of a result (each StateWaitRecv
// interval is one sample) into nbins equal-width bins.
func WaitHistogram(res *sim.Result, nbins int) *Histogram {
	var samples []float64
	for _, iv := range res.Intervals {
		if iv.State == sim.StateWaitRecv {
			samples = append(samples, iv.End-iv.Start)
		}
	}
	return histogramOf("wait durations (s)", samples, nbins)
}

func histogramOf(label string, samples []float64, nbins int) *Histogram {
	if nbins < 1 {
		nbins = 1
	}
	h := &Histogram{Label: label, Counts: make([]int, nbins), Edges: make([]float64, nbins+1)}
	if len(samples) == 0 {
		return h
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples[1:] {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if hi == lo {
		hi = lo + 1
	}
	for i := range h.Edges {
		h.Edges[i] = lo + (hi-lo)*float64(i)/float64(nbins)
	}
	for _, s := range samples {
		bin := int((s - lo) / (hi - lo) * float64(nbins))
		if bin >= nbins {
			bin = nbins - 1
		}
		h.Counts[bin]++
	}
	return h
}

// Format renders the histogram with proportional bars.
func (h *Histogram) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Label)
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		b.WriteString("  (no samples)\n")
		return b.String()
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*40/max)
		fmt.Fprintf(&b, "  [%10.3e, %10.3e) %6d %s\n", h.Edges[i], h.Edges[i+1], c, bar)
	}
	return b.String()
}

// EfficiencySlices splits [0, FinishSec] into nslices windows and reports
// the parallel efficiency (fraction of rank-time computing) per window —
// the "where does the run lose time" view.
func EfficiencySlices(res *sim.Result, nslices int) []float64 {
	if nslices < 1 {
		nslices = 1
	}
	out := make([]float64, nslices)
	if res.FinishSec <= 0 || len(res.Ranks) == 0 {
		return out
	}
	width := res.FinishSec / float64(nslices)
	for _, iv := range res.Intervals {
		if iv.State != sim.StateCompute {
			continue
		}
		first := int(iv.Start / width)
		last := int(iv.End / width)
		for s := first; s <= last && s < nslices; s++ {
			winLo := float64(s) * width
			winHi := winLo + width
			lo := math.Max(iv.Start, winLo)
			hi := math.Min(iv.End, winHi)
			if hi > lo {
				out[s] += hi - lo
			}
		}
	}
	denom := width * float64(len(res.Ranks))
	for s := range out {
		out[s] /= denom
		if out[s] > 1 {
			out[s] = 1
		}
	}
	return out
}

// FormatEfficiency renders the slice efficiencies as a sparkline-style bar
// row plus the overall value.
func FormatEfficiency(slices []float64) string {
	glyphs := []byte(" .:-=+*#%@")
	var b strings.Builder
	b.WriteString("parallel efficiency per time slice: |")
	var sum float64
	for _, e := range slices {
		sum += e
		g := int(e * float64(len(glyphs)-1))
		if g < 0 {
			g = 0
		}
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		b.WriteByte(glyphs[g])
	}
	if len(slices) > 0 {
		fmt.Fprintf(&b, "|  overall %.1f%%\n", 100*sum/float64(len(slices)))
	} else {
		b.WriteString("|\n")
	}
	return b.String()
}

// TrafficClassSummary aggregates one replay's traffic by link class — the
// intra- vs inter-node annotation of the hierarchical platform model.
type TrafficClassSummary struct {
	IntraBytes, InterBytes int64
	IntraMsgs, InterMsgs   int
	// IntraLineSec and InterLineSec are the mean send→match line lengths
	// per class (0 when the class carried no traffic).
	IntraLineSec, InterLineSec float64
}

// TrafficSummaryOf classifies a result's transfers by locality.
func TrafficSummaryOf(res *sim.Result) TrafficClassSummary {
	var s TrafficClassSummary
	var intraLine, interLine float64
	for _, c := range res.Comms {
		line := c.MatchT - c.SendT
		if c.Intra {
			s.IntraBytes += c.Bytes
			s.IntraMsgs++
			intraLine += line
		} else {
			s.InterBytes += c.Bytes
			s.InterMsgs++
			interLine += line
		}
	}
	if s.IntraMsgs > 0 {
		s.IntraLineSec = intraLine / float64(s.IntraMsgs)
	}
	if s.InterMsgs > 0 {
		s.InterLineSec = interLine / float64(s.InterMsgs)
	}
	return s
}

// Format renders the class split as a small table.
func (s TrafficClassSummary) Format() string {
	var b strings.Builder
	total := s.IntraBytes + s.InterBytes
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	b.WriteString("traffic by link class (hierarchical platform)\n")
	fmt.Fprintf(&b, "%-12s %10s %14s %8s %14s\n", "class", "messages", "bytes", "share", "avg line (s)")
	fmt.Fprintf(&b, "%-12s %10d %14d %7.1f%% %14.6f\n", "intra-node", s.IntraMsgs, s.IntraBytes, pct(s.IntraBytes), s.IntraLineSec)
	fmt.Fprintf(&b, "%-12s %10d %14d %7.1f%% %14.6f\n", "inter-node", s.InterMsgs, s.InterBytes, pct(s.InterBytes), s.InterLineSec)
	return b.String()
}
