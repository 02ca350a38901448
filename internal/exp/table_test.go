package exp

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("y", "2")
	tbl.Note("n = %d", 2)
	out := tbl.String()
	for _, want := range []string{"== demo ==", "a", "b", "x", "y", "note: n = 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tbl.AddRow("plain", "1")
	tbl.AddRow("with,comma", `with"quote`)
	tbl.Note("footnote")
	var sb strings.Builder
	tbl.WriteCSV(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "name,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "plain,1" {
		t.Fatalf("row = %q", lines[1])
	}
	if lines[2] != `"with,comma","with""quote"` {
		t.Fatalf("quoted row = %q", lines[2])
	}
	if lines[3] != "# footnote" {
		t.Fatalf("note = %q", lines[3])
	}
}

func TestStatsHelpers(t *testing.T) {
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 1.0/256 {
		t.Fatalf("zero options scale = %v", o.scale())
	}
	o.Scale = 0.5
	if o.scale() != 0.5 {
		t.Fatalf("explicit scale = %v", o.scale())
	}
}
