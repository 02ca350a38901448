package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"morpheus/internal/exp"
)

// The traced runs time the experiments as compositions of public calls.
// These tests hold each composition to the experiment it stands for, so
// the spans time the experiment's real work and a refactor that makes
// them drift fails here.

func TestFig8Composition(t *testing.T) {
	o := fig8Options(7)
	o.Scale = 1.0 / 4096
	want, err := exp.RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := fig8Compose(o, tr, sha256.New())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fig8RowsDigest(got), fig8RowsDigest(want)) {
		t.Fatalf("composition rows differ from exp.RunFig8:\n got %+v\nwant %+v", got, want)
	}
	if n := tr.counts["apps.Stage.calls"]; n != float64(2*len(want.Rows)) {
		t.Errorf("apps.Stage.calls = %v, want %d", n, 2*len(want.Rows))
	}
}

func TestArrayComposition(t *testing.T) {
	o := arrayOptions(7)
	o.Scale = 0.005

	ref := newTelemetry()
	eo := o
	eo.Trace, eo.Metrics = ref.tracer, ref.metrics
	want, err := exp.RunArray(eo, exp.ArraySweep{Shards: arrayShards, Replicas: arrayReplicas, Requests: arrayRequests})
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantS, wantT, err := ref.artifacts(nil)
	if err != nil {
		t.Fatal(err)
	}

	tel := newTelemetry()
	tr := newTracer()
	w, err := arraySetup(o, tel, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, arrivals, failed, _, err := w.serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotS, gotT, err := tel.artifacts(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arrayRowsDigest(got), arrayRowsDigest(want)) {
		t.Errorf("composition rows differ from exp.RunArray:\n got %+v\nwant %+v", got.Rows, want.Rows)
	}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{{"metrics", gotM, wantM}, {"series", gotS, wantS}, {"trace", gotT, wantT}} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("composition %s artifact differs from exp.RunArray's (%d vs %d bytes)", c.name, len(c.got), len(c.want))
		}
	}
	if arrivals != 2*arrayRequests || failed != 0 {
		t.Errorf("arrivals %d failed %d, want %d and 0", arrivals, failed, 2*arrayRequests)
	}
}

func TestMwriteMatchesOracle(t *testing.T) {
	w, err := mwriteSetup(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.objs, w.outs = w.objs[:2], w.outs[:2]
	results, errs := w.serialize(nil)
	for i, obj := range w.objs {
		if errs[i] != nil {
			t.Fatalf("object %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Written, mwriteWant(obj)) {
			t.Errorf("object %d: MWRITE text differs from serial.AppendIntText", i)
		}
	}
}

func TestSpansSelfTimeAndChromeExport(t *testing.T) {
	tr := newTracer()
	outer := tr.span("outer", "")
	inner := tr.span("inner", "x")
	inner()
	outer()
	self := tr.self(0)
	whole := tr.spans[0].end - tr.spans[0].start
	if self["outer"]+self["inner"] != whole {
		t.Errorf("self times %v do not sum to the outer span's %v", self, whole)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	if len(names) != 2 || names[0] != "outer" || names[1] != "inner" {
		t.Errorf("complete events %v, want [outer inner]", names)
	}
}
