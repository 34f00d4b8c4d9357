package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "render", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kde", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "peaks", Start: 30, End: 50},   // overlaps kde: counted once
		{ID: 4, Parent: 1, Name: "encode", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "blur", Start: 15, End: 25},
	}
	self := selfByName(spans)
	for name, want := range map[string]time.Duration{
		"render": 100 - 40 - 10,
		"kde":    30 - 10,
		"peaks":  20,
		"encode": 30,
		"blur":   10,
	} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
	if total := totalByName(spans)["render"]; total != 100 {
		t.Errorf("total(render) = %v, want 100ns", total)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root, _ := tr.open("run", 0)
	child := tr.add("step", root, time.Now(), time.Now())
	tr.close(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].ID != child || got[1].Parent != root || got[0].End < got[0].Start {
		t.Fatalf("spans = %+v", got)
	}
	var off *tracer // disabled tracer: every call is a no-op
	id, _ := off.open("x", 0)
	off.close(id)
	ran := false
	off.time("y", 0, func(int64) { ran = true })
	if id != 0 || off.add("z", 0, time.Now(), time.Now()) != 0 || off.snapshot() != nil || !ran {
		t.Fatal("nil tracer must record nothing and still run the timed call")
	}
}
