package harness

import (
	"fmt"

	"astra/internal/baselines"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/parallel"
	"astra/internal/spec"
	"astra/internal/wire"
)

// exploreWired compiles the model at the preset, explores to convergence
// and returns (wired batch time, exploration trials, alloc strategies).
func exploreWired(m *models.Model, preset enumerate.Preset) (float64, int, int) {
	s := wire.NewSession(m, stockConfig(preset))
	s.Explore()
	return s.WiredTimeUs(), s.Trials, len(s.Plan.Allocs)
}

// stockConfig is the single-GPU session configuration of the stock spec
// at preset: the simulated P100 and 2 µs of CPU dispatch per op.
func stockConfig(preset enumerate.Preset) wire.SessionConfig {
	return wire.Config(spec.New("", "", 0, string(preset)))
}

func buildModel(name string, batch int) *models.Model {
	build, ok := models.Get(name)
	if !ok {
		panic("harness: unknown model " + name)
	}
	return build(models.DefaultConfig(name, batch))
}

// speedupTable renders Tables 2–4: factor speedup relative to native
// PyTorch for the cumulative Astra presets across mini-batch sizes. Every
// (batch, preset) cell is an independent exploration episode — its own
// model build, native baseline and session — so the cells fan out across
// Options.Parallel workers and merge back in canonical order.
func speedupTable(id, model string, o Options) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s speedup vs native PyTorch", model),
		Header: []string{"Mini-batch", "PyT", "Astra_F", "Astra_FK", "Astra_FKS", "Astra_all"},
	}
	presets := []enumerate.Preset{enumerate.PresetF, enumerate.PresetFK, enumerate.PresetFKS, enumerate.PresetAll}
	batches := o.batches()
	cells, err := parallel.Map(o.workers(), len(batches)*len(presets), func(i int) (string, error) {
		batch, p := batches[i/len(presets)], presets[i%len(presets)]
		m := buildModel(model, batch)
		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		wired, _, _ := exploreWired(m, p)
		o.progress("%s %s batch=%d %s done", id, model, batch, p)
		return f2(nat.TimeUs / wired), nil
	})
	if err != nil {
		return nil, err
	}
	for bi, batch := range batches {
		row := []string{fmt.Sprint(batch), "1"}
		row = append(row, cells[bi*len(presets):(bi+1)*len(presets)]...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// cudnnTable renders Tables 5–6: performance relative to PyTorch+cuDNN for
// the models (partially) covered by the hand-optimized compound kernels.
// Cells parallelize exactly like speedupTable's.
func cudnnTable(id, model string, o Options) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s performance relative to cuDNN", model),
		Header: []string{"Mini-batch", "PyT", "cuDNN", "Astra_F", "Astra_FK", "Astra_all"},
	}
	presets := []enumerate.Preset{enumerate.PresetF, enumerate.PresetFK, enumerate.PresetAll}
	batches := o.batches()
	type cell struct{ pyt, val string }
	cells, err := parallel.Map(o.workers(), len(batches)*len(presets), func(i int) (cell, error) {
		batch, p := batches[i/len(presets)], presets[i%len(presets)]
		m := buildModel(model, batch)
		nat := baselines.RunNative(m.G, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		cud, ok := baselines.RunCuDNN(m, gpusim.NewDevice(gpusim.P100()), baselines.PyTorch(), nil, nil)
		if !ok {
			return cell{}, fmt.Errorf("harness: cuDNN does not cover %s", model)
		}
		wired, _, _ := exploreWired(m, p)
		o.progress("%s %s batch=%d %s done", id, model, batch, p)
		return cell{pyt: f2(cud.TimeUs / nat.TimeUs), val: f2(cud.TimeUs / wired)}, nil
	})
	if err != nil {
		return nil, err
	}
	for bi, batch := range batches {
		row := []string{fmt.Sprint(batch), cells[bi*len(presets)].pyt, "1"}
		for pi := range presets {
			row = append(row, cells[bi*len(presets)+pi].val)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
