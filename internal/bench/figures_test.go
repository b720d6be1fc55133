package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/topology"
)

// A tiny one-panel figure keeps the JSON/render paths tested without the
// full four-machine sweep.
func tinyFigure(t *testing.T) Figure {
	t.Helper()
	m := topology.Dancer()
	return Figure{
		ID:    "tiny",
		Title: "tiny",
		Panels: []Panel{{
			Title:    "tiny on Dancer",
			Machine:  m.Name,
			Baseline: "KNEM-Coll",
			Sizes:    []int64{64 * KiB},
			Series:   Default.sweep(m, m.NCores(), OpBcast, []Comp{TunedSM(), KNEMColl()}, []int64{64 * KiB}, 1, true),
		}},
	}
}

func TestFigureRenderAndJSON(t *testing.T) {
	fig := tinyFigure(t)
	var txt strings.Builder
	fig.Render(&txt)
	if !strings.Contains(txt.String(), "Tuned-SM") || !strings.Contains(txt.String(), "64K") {
		t.Fatalf("render:\n%s", txt.String())
	}
	var js strings.Builder
	if err := fig.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	panels := decoded["panels"].([]any)
	if len(panels) != 1 {
		t.Fatalf("panels = %d", len(panels))
	}
	series := panels[0].(map[string]any)["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// The baseline's normalized value is exactly 1.
	for _, sAny := range series {
		sm := sAny.(map[string]any)
		if sm["label"] == "KNEM-Coll" {
			pt := sm["points"].([]any)[0].(map[string]any)
			if pt["normalized"].(float64) != 1.0 {
				t.Fatalf("baseline normalized = %v", pt["normalized"])
			}
		}
	}
}

func TestScalabilityRender(t *testing.T) {
	m := topology.Dancer()
	s := Default.RunScalability(m, OpBcast, 256*KiB, []int{2, 8}, []Comp{TunedSM(), KNEMColl()}, 1)
	var sb strings.Builder
	s.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "growth") || !strings.Contains(out, "KNEM-Coll") {
		t.Fatalf("render:\n%s", out)
	}
	if g := s.Growth("Tuned-SM"); g <= 1 {
		t.Fatalf("Tuned-SM growth = %g, want > 1", g)
	}
}

func TestTable1Render(t *testing.T) {
	res := Default.RunTable1(topology.Dancer(), 2048, 32)
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Improvement") || !strings.Contains(sb.String(), "KNEM Coll") {
		t.Fatalf("render:\n%s", sb.String())
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestPingPongOp(t *testing.T) {
	m := topology.Dancer()
	small := Default.MustMeasure(Config{Machine: m, Comp: TunedSM(), Op: OpPingPong, Size: 1 * KiB, Iters: 2})
	big := Default.MustMeasure(Config{Machine: m, Comp: TunedSM(), Op: OpPingPong, Size: 1 * MiB, Iters: 2})
	if small.Seconds <= 0 || big.Seconds <= small.Seconds {
		t.Fatalf("pingpong: small=%g big=%g", small.Seconds, big.Seconds)
	}
}

func TestAblationRows(t *testing.T) {
	strict, err := lazySyncMeasure(false)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := lazySyncMeasure(true)
	if err != nil {
		t.Fatal(err)
	}
	row := AblationRow{
		Name: "root sync under 1ms straggler", A: "strict", B: "lazy",
		SecsA: strict, SecsB: lazy, Speedup: strict / lazy,
	}
	if row.Speedup <= 1 {
		t.Fatalf("lazy sync ablation speedup = %g, want > 1", row.Speedup)
	}
	var sb strings.Builder
	RenderAblations(&sb, []AblationRow{row})
	if !strings.Contains(sb.String(), "straggler") {
		t.Fatal("ablation render missing row")
	}
}
