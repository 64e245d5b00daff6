package core

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/network"
)

// What-if analysis: which buffer's production/consumption pattern limits
// the overlap? For every communicated buffer, the analysis rebuilds the
// overlapped trace with *only that buffer* given the ideal schedule (all
// others keep their measured patterns) and replays it. The resulting
// ranking tells a developer which buffer to restructure first — the
// bottleneck-identification workflow the paper describes for its Paraver
// views, quantified.

// BufferPotential is the outcome of idealizing one buffer.
type BufferPotential struct {
	// Buffer is the tracked array name.
	Buffer string
	// FinishSec is the makespan with only this buffer idealized.
	FinishSec float64
	// Speedup compares against the non-overlapped execution.
	Speedup float64
	// GainOverReal is the speedup relative to the all-real overlapped
	// execution: the marginal value of restructuring just this buffer.
	GainOverReal float64
}

// wireWhatIf ranks the buffers of one what-if point of app on ranks
// processes on plat: ms holds the base and overlap-real measurements,
// then one selective measurement per buffer of names.
func wireWhatIf(app string, ranks int, plat network.Platform, names []string, ms []replayed) (*WireWhatIf, error) {
	pd, err := plat.Digest()
	if err != nil {
		return nil, err
	}
	baseFin, realFin := ms[0].sum.FinishSec, ms[1].sum.FinishSec
	w := &WireWhatIf{
		App:            app,
		Ranks:          ranks,
		PlatformDigest: pd,
		BaseFinishSec:  baseFin,
		RealFinishSec:  realFin,
		Buffers:        make([]BufferPotential, len(names)),
	}
	for i, name := range names {
		fin := ms[2+i].sum.FinishSec
		w.Buffers[i] = BufferPotential{
			Buffer:       name,
			FinishSec:    fin,
			Speedup:      metrics.Speedup(baseFin, fin),
			GainOverReal: metrics.Speedup(realFin, fin),
		}
	}
	// Rank by marginal gain; ties keep the sorted buffer-name order.
	sort.SliceStable(w.Buffers, func(i, j int) bool {
		return w.Buffers[i].GainOverReal > w.Buffers[j].GainOverReal
	})
	return w, nil
}

// Format renders the ranking as a table.
func (w *WireWhatIf) Format() string {
	out := fmt.Sprintf("what-if (idealize one buffer at a time) for %s\n", w.App)
	out += fmt.Sprintf("non-overlapped %.6f s, overlapped(real) %.6f s\n", w.BaseFinishSec, w.RealFinishSec)
	out += fmt.Sprintf("%-20s %12s %12s %14s\n", "buffer", "finish (s)", "speedup", "gain vs real")
	for _, b := range w.Buffers {
		out += fmt.Sprintf("%-20s %12.6f %12.3f %14.3f\n", b.Buffer, b.FinishSec, b.Speedup, b.GainOverReal)
	}
	return out
}
