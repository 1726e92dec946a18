package wire

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
)

// timelineDigest folds every kernel record of the given devices (name,
// stream, start, end) and the batch's counters into one FNV-1a digest.
func timelineDigest(res BatchResult, devs ...*gpusim.Device) string {
	h := fnv.New64a()
	var buf [8]byte
	putU := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	putF := func(f float64) { putU(math.Float64bits(f)) }
	for _, d := range devs {
		for _, rec := range d.Records() {
			h.Write([]byte(rec.Name))
			putU(uint64(rec.Stream))
			putF(rec.StartUs)
			putF(rec.EndUs)
		}
		putU(math.MaxUint64) // device separator
	}
	putF(res.TotalUs)
	putU(uint64(res.Kernels))
	putU(uint64(res.Events))
	putU(uint64(res.ProfEvents))
	putU(uint64(res.CommKernels))
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestBindings are the variable bindings each session case runs under.
var digestBindings = []struct {
	name string
	bind func(p *enumerate.Plan)
}{
	{"defaults", func(p *enumerate.Plan) {}},
	{"streams-last", func(p *enumerate.Plan) {
		for _, se := range p.Supers {
			for _, ep := range se.Epochs {
				for _, cls := range ep.Classes {
					if v := p.StreamVars[cls]; v != nil {
						v.SetChoice(len(v.Labels) - 1)
					}
				}
			}
		}
	}},
	{"chunks-max", func(p *enumerate.Plan) {
		for _, grp := range p.Groups {
			if v := p.ChunkVars[grp]; v != nil {
				v.SetChoice(len(v.Labels) - 1)
			}
		}
	}},
}

// dispatchDigests computes the digest table: every zoo model at tiny scale
// × presets F, FK, All × 1 and 2 workers × the digest bindings, stepped
// through a session; plus, per model, the static-fusion runner
// configurations (MaxFusion, with and without the embedding host
// transfer) driven through RunBatch directly.
func dispatchDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	presets := []enumerate.Preset{enumerate.PresetF, enumerate.PresetFK, enumerate.PresetAll}
	for _, name := range models.Names() {
		build, _ := models.Get(name)
		for _, preset := range presets {
			for _, workers := range []int{1, 2} {
				for _, b := range digestBindings {
					m := build(models.TinyConfig(name, 2))
					opts := enumerate.PresetOptions(preset)
					cfg := SessionConfig{
						Device:  gpusim.P100(),
						Options: opts,
						Runner:  RunnerConfig{PerOpCPUUs: 2},
					}
					if workers >= 2 {
						cfg.Options.CommAdapt = true
						cfg.Options.Workers = workers
						cfg.Comm = CommConfig{Workers: workers, BytesPerUs: 11000, LatencyUs: 8, Fabric: "pcie3"}
					}
					s := NewSession(m, cfg)
					b.bind(s.Plan)
					res := s.Step()
					devs := []*gpusim.Device{s.Runner.Dev}
					for _, p := range s.Peers {
						devs = append(devs, p.Dev)
					}
					key := fmt.Sprintf("%s/%s/w%d/%s", name, preset, workers, b.name)
					out[key] = timelineDigest(res, devs...)
				}
			}
		}
		for _, rc := range []struct {
			name string
			cfg  RunnerConfig
		}{
			{"maxfusion", RunnerConfig{PerOpCPUUs: 3, MaxFusion: true, Profile: true}},
			{"maxfusion-hosttransfer", RunnerConfig{PerOpCPUUs: 3, MaxFusion: true, EmbeddingHostTransfer: true}},
		} {
			m := build(models.TinyConfig(name, 2))
			plan := enumerate.Enumerate(m.G, enumerate.Options{ElementwiseFusion: true})
			r := NewRunner(plan, gpusim.NewDevice(gpusim.P100()), rc.cfg)
			res := r.RunBatch(nil, nil)
			out[fmt.Sprintf("%s/runner/%s", name, rc.name)] = timelineDigest(res, r.Dev)
		}
	}
	return out
}

// TestDispatchTimelineDigest pins the simulated device timeline of one
// batch across the zoo, the presets, worker counts, bindings and runner
// configurations: any change to what the wirer issues — kernel order,
// streams, synchronization, timing — changes a digest.
func TestDispatchTimelineDigest(t *testing.T) {
	got := dispatchDigests(t)
	keys := make([]string, 0, len(got))
	for key := range got { // lint:ok map-range keys sorted below
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var diff []string
	var table strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", key, got[key])
		if want, ok := wantDispatchDigests[key]; !ok || got[key] != want {
			diff = append(diff, fmt.Sprintf("%s: got %s, want %s", key, got[key], want))
		}
	}
	if len(got) != len(wantDispatchDigests) {
		diff = append(diff, fmt.Sprintf("%d cases, want %d", len(got), len(wantDispatchDigests)))
	}
	if len(diff) > 0 {
		t.Fatalf("%d digest(s) differ:\n%s\ncurrent table:\n%s", len(diff), strings.Join(diff, "\n"), table.String())
	}
}

var wantDispatchDigests = map[string]string{
	"attlstm/Astra_F/w1/chunks-max":             "271e332d189ce147",
	"attlstm/Astra_F/w1/defaults":               "8b1feb5b7f9eaaed",
	"attlstm/Astra_F/w1/streams-last":           "8b1feb5b7f9eaaed",
	"attlstm/Astra_F/w2/chunks-max":             "6d647728084f2af8",
	"attlstm/Astra_F/w2/defaults":               "cef1ba3d3e438f24",
	"attlstm/Astra_F/w2/streams-last":           "cef1ba3d3e438f24",
	"attlstm/Astra_FK/w1/chunks-max":            "8a999a31a1f66cbe",
	"attlstm/Astra_FK/w1/defaults":              "1610765a7c4e84bc",
	"attlstm/Astra_FK/w1/streams-last":          "1610765a7c4e84bc",
	"attlstm/Astra_FK/w2/chunks-max":            "3f3f6f504e9fd4e2",
	"attlstm/Astra_FK/w2/defaults":              "26e8f542b6afd664",
	"attlstm/Astra_FK/w2/streams-last":          "26e8f542b6afd664",
	"attlstm/Astra_all/w1/chunks-max":           "711b27f86ba6826c",
	"attlstm/Astra_all/w1/defaults":             "03cad37797bbf8aa",
	"attlstm/Astra_all/w1/streams-last":         "5981bc6ac50f9abd",
	"attlstm/Astra_all/w2/chunks-max":           "33024e993d352e2a",
	"attlstm/Astra_all/w2/defaults":             "e5abb541b5b4acb0",
	"attlstm/Astra_all/w2/streams-last":         "c5392a56eddba8e8",
	"attlstm/runner/maxfusion":                  "579d829823598492",
	"attlstm/runner/maxfusion-hosttransfer":     "2058732a1ba39335",
	"gnmt/Astra_F/w1/chunks-max":                "c59800d3b8f63407",
	"gnmt/Astra_F/w1/defaults":                  "b074b073073f03d5",
	"gnmt/Astra_F/w1/streams-last":              "b074b073073f03d5",
	"gnmt/Astra_F/w2/chunks-max":                "14661e495f1504fb",
	"gnmt/Astra_F/w2/defaults":                  "272bc3051d5e2786",
	"gnmt/Astra_F/w2/streams-last":              "272bc3051d5e2786",
	"gnmt/Astra_FK/w1/chunks-max":               "67eb956d2901aa1f",
	"gnmt/Astra_FK/w1/defaults":                 "27c32cab58c6b237",
	"gnmt/Astra_FK/w1/streams-last":             "27c32cab58c6b237",
	"gnmt/Astra_FK/w2/chunks-max":               "2ce8e49531927f93",
	"gnmt/Astra_FK/w2/defaults":                 "3de4781f00e90b95",
	"gnmt/Astra_FK/w2/streams-last":             "3de4781f00e90b95",
	"gnmt/Astra_all/w1/chunks-max":              "afb28b1b206f6f2e",
	"gnmt/Astra_all/w1/defaults":                "056b9c786253dae1",
	"gnmt/Astra_all/w1/streams-last":            "0dbf03407afe3c29",
	"gnmt/Astra_all/w2/chunks-max":              "67316fac2140ce04",
	"gnmt/Astra_all/w2/defaults":                "cb369eabd13391f0",
	"gnmt/Astra_all/w2/streams-last":            "00f14568078c0bf6",
	"gnmt/runner/maxfusion":                     "f13225ef5e4286e9",
	"gnmt/runner/maxfusion-hosttransfer":        "76715fe78038e43d",
	"milstm/Astra_F/w1/chunks-max":              "d1b4ca6efb720345",
	"milstm/Astra_F/w1/defaults":                "f8036b8061bd709a",
	"milstm/Astra_F/w1/streams-last":            "f8036b8061bd709a",
	"milstm/Astra_F/w2/chunks-max":              "008c9c071014da9f",
	"milstm/Astra_F/w2/defaults":                "896a4baf28c1b11c",
	"milstm/Astra_F/w2/streams-last":            "896a4baf28c1b11c",
	"milstm/Astra_FK/w1/chunks-max":             "1bac89ee576aecae",
	"milstm/Astra_FK/w1/defaults":               "a769fef5770692dd",
	"milstm/Astra_FK/w1/streams-last":           "a769fef5770692dd",
	"milstm/Astra_FK/w2/chunks-max":             "e1de81869cf1700d",
	"milstm/Astra_FK/w2/defaults":               "ef329e3179348ad9",
	"milstm/Astra_FK/w2/streams-last":           "ef329e3179348ad9",
	"milstm/Astra_all/w1/chunks-max":            "c4c839c01f92b147",
	"milstm/Astra_all/w1/defaults":              "415dffeef322e077",
	"milstm/Astra_all/w1/streams-last":          "eabcfafa3cf2e71a",
	"milstm/Astra_all/w2/chunks-max":            "4babcb4566de8028",
	"milstm/Astra_all/w2/defaults":              "69d1b24fa06f7643",
	"milstm/Astra_all/w2/streams-last":          "a5551149f5164f5e",
	"milstm/runner/maxfusion":                   "11b8453367af0735",
	"milstm/runner/maxfusion-hosttransfer":      "28d5b8e07280b190",
	"rhn/Astra_F/w1/chunks-max":                 "df5ff43b637d29ab",
	"rhn/Astra_F/w1/defaults":                   "60af7ca842f1d349",
	"rhn/Astra_F/w1/streams-last":               "60af7ca842f1d349",
	"rhn/Astra_F/w2/chunks-max":                 "c43551a76e1bf908",
	"rhn/Astra_F/w2/defaults":                   "e13872eee8c5b14e",
	"rhn/Astra_F/w2/streams-last":               "e13872eee8c5b14e",
	"rhn/Astra_FK/w1/chunks-max":                "99faba7e9e9940d9",
	"rhn/Astra_FK/w1/defaults":                  "fa02f391eebf483a",
	"rhn/Astra_FK/w1/streams-last":              "fa02f391eebf483a",
	"rhn/Astra_FK/w2/chunks-max":                "e261fb6c73144503",
	"rhn/Astra_FK/w2/defaults":                  "a25ddec260024604",
	"rhn/Astra_FK/w2/streams-last":              "a25ddec260024604",
	"rhn/Astra_all/w1/chunks-max":               "f78eee31076721e8",
	"rhn/Astra_all/w1/defaults":                 "10c4dcf0b8818918",
	"rhn/Astra_all/w1/streams-last":             "651527b5aad2b7b5",
	"rhn/Astra_all/w2/chunks-max":               "44156a335ba85c69",
	"rhn/Astra_all/w2/defaults":                 "4ba03878fa02ac53",
	"rhn/Astra_all/w2/streams-last":             "199c95846ee899de",
	"rhn/runner/maxfusion":                      "f86a12c31428c752",
	"rhn/runner/maxfusion-hosttransfer":         "f785469847fc7709",
	"scrnn/Astra_F/w1/chunks-max":               "1f5dcb61a0b5f8a7",
	"scrnn/Astra_F/w1/defaults":                 "89e7b02b0e7d5298",
	"scrnn/Astra_F/w1/streams-last":             "89e7b02b0e7d5298",
	"scrnn/Astra_F/w2/chunks-max":               "92b8d5bf363b27fe",
	"scrnn/Astra_F/w2/defaults":                 "f0a6691dc4d9b628",
	"scrnn/Astra_F/w2/streams-last":             "f0a6691dc4d9b628",
	"scrnn/Astra_FK/w1/chunks-max":              "1f5dcb61a0b5f8a7",
	"scrnn/Astra_FK/w1/defaults":                "89e7b02b0e7d5298",
	"scrnn/Astra_FK/w1/streams-last":            "89e7b02b0e7d5298",
	"scrnn/Astra_FK/w2/chunks-max":              "92b8d5bf363b27fe",
	"scrnn/Astra_FK/w2/defaults":                "f0a6691dc4d9b628",
	"scrnn/Astra_FK/w2/streams-last":            "f0a6691dc4d9b628",
	"scrnn/Astra_all/w1/chunks-max":             "bb50b59a582bfe20",
	"scrnn/Astra_all/w1/defaults":               "d70e0c9ed0ebc232",
	"scrnn/Astra_all/w1/streams-last":           "a1ff8559bc6d2ba2",
	"scrnn/Astra_all/w2/chunks-max":             "41f2de9a5fd33722",
	"scrnn/Astra_all/w2/defaults":               "4dcf785fe56540f3",
	"scrnn/Astra_all/w2/streams-last":           "f2c2ac4015b9f222",
	"scrnn/runner/maxfusion":                    "9cc887e848d4152f",
	"scrnn/runner/maxfusion-hosttransfer":       "b5ad2924a585fac3",
	"stackedlstm/Astra_F/w1/chunks-max":         "8894d96bca6982fe",
	"stackedlstm/Astra_F/w1/defaults":           "189a34ad1914d208",
	"stackedlstm/Astra_F/w1/streams-last":       "189a34ad1914d208",
	"stackedlstm/Astra_F/w2/chunks-max":         "df33e48b92dec033",
	"stackedlstm/Astra_F/w2/defaults":           "1996f9a71650187c",
	"stackedlstm/Astra_F/w2/streams-last":       "1996f9a71650187c",
	"stackedlstm/Astra_FK/w1/chunks-max":        "2695b26b554e03fd",
	"stackedlstm/Astra_FK/w1/defaults":          "9789a8127bdb68c9",
	"stackedlstm/Astra_FK/w1/streams-last":      "9789a8127bdb68c9",
	"stackedlstm/Astra_FK/w2/chunks-max":        "ff4e4316bb90e7c8",
	"stackedlstm/Astra_FK/w2/defaults":          "499541d8b068402b",
	"stackedlstm/Astra_FK/w2/streams-last":      "499541d8b068402b",
	"stackedlstm/Astra_all/w1/chunks-max":       "8284a25bbd82c633",
	"stackedlstm/Astra_all/w1/defaults":         "5c95c210b7ae710b",
	"stackedlstm/Astra_all/w1/streams-last":     "4a68389a4e4a150d",
	"stackedlstm/Astra_all/w2/chunks-max":       "780f066c3028f721",
	"stackedlstm/Astra_all/w2/defaults":         "93b0f92560f76d3a",
	"stackedlstm/Astra_all/w2/streams-last":     "08d6060fed5962f9",
	"stackedlstm/runner/maxfusion":              "30bbc4fd01444b97",
	"stackedlstm/runner/maxfusion-hosttransfer": "dd6feddf6ce1b485",
	"sublstm/Astra_F/w1/chunks-max":             "572a7ffde0f551ca",
	"sublstm/Astra_F/w1/defaults":               "dfcee7c1d1509aaa",
	"sublstm/Astra_F/w1/streams-last":           "dfcee7c1d1509aaa",
	"sublstm/Astra_F/w2/chunks-max":             "a5306edfaf16ab7e",
	"sublstm/Astra_F/w2/defaults":               "2d624b42df4c1787",
	"sublstm/Astra_F/w2/streams-last":           "2d624b42df4c1787",
	"sublstm/Astra_FK/w1/chunks-max":            "27752031a72198cd",
	"sublstm/Astra_FK/w1/defaults":              "1b3a23e7bfc85794",
	"sublstm/Astra_FK/w1/streams-last":          "1b3a23e7bfc85794",
	"sublstm/Astra_FK/w2/chunks-max":            "aa32fb8c4d93d8ca",
	"sublstm/Astra_FK/w2/defaults":              "93474f83991e3302",
	"sublstm/Astra_FK/w2/streams-last":          "93474f83991e3302",
	"sublstm/Astra_all/w1/chunks-max":           "a3743c5a15258fb0",
	"sublstm/Astra_all/w1/defaults":             "59318621e6c0a8c1",
	"sublstm/Astra_all/w1/streams-last":         "907bf00c44283168",
	"sublstm/Astra_all/w2/chunks-max":           "99a1c584268b41de",
	"sublstm/Astra_all/w2/defaults":             "5fb31a8480c6624a",
	"sublstm/Astra_all/w2/streams-last":         "8a33f819d8fcec47",
	"sublstm/runner/maxfusion":                  "4d15ab514fc5e4d1",
	"sublstm/runner/maxfusion-hosttransfer":     "5f097e91161c04ca",
}
