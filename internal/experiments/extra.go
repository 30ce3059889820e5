package experiments

import (
	"fmt"

	"dsks/internal/dataset"
	"dsks/internal/harness"
)

// ExtraBufferSweep is an additional experiment beyond the paper's figures:
// the sensitivity of the SK search to the LRU buffer budget, which the
// paper fixes at 2% of the network dataset. Disk accesses should fall
// steeply as the buffer grows and flatten once the working set fits.
func ExtraBufferSweep(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Extra: LRU buffer budget sweep (NA, SIF)",
		"buffer frames", "avg disk accesses", "avg query ms")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 83,
	})
	if err != nil {
		return nil, err
	}
	for _, frames := range []int{2, 4, 8, 16, 32, 64, 128} {
		sys, err := harness.BuildFrames(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{
			IOLatency: cfg.IOLatency,
		}, frames)
		if err != nil {
			return nil, err
		}
		avg, reads, _, err := runSKWorkload(sys, harness.KindSIF, ws)
		if err != nil {
			return nil, err
		}
		r.addRow(fmt.Sprintf("%d", frames), f1(reads), ms(avg))
		r.series("io").Append(float64(frames), reads)
		r.series("time").Append(float64(frames), msf(avg))
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}
