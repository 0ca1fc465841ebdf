package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []Span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []Span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested child inside another", []Span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"child clipped to the parent", []Span{{Start: 90, End: 120}, {Start: -5, End: 5}}, 85},
		{"child outside the parent", []Span{{Start: 150, End: 160}}, 100},
		{"unsorted children", []Span{{Start: 60, End: 70}, {Start: 10, End: 20}}, 80},
		{"children cover everything", []Span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimesAndFile(t *testing.T) {
	tr := NewTracer()
	at := func(ns int) time.Time { return tr.origin.Add(time.Duration(ns)) }
	child1 := tr.Add("engine.exec", at(10), at(40), -1, 7)
	child2 := tr.Add("gdb.reset", at(50), at(55), -1, 7)
	q := tr.Add("core.query", at(0), at(100), -1, 7)
	tr.Adopt(q, []int{child1, child2})
	root := tr.Add("gdb.leg", at(0), at(0), -1, -1)
	tr.SetEnd(root, at(200))

	if got := tr.SelfTimes("core.query"); len(got) != 1 || got[0] != 65 {
		t.Fatalf("query self times = %v, want [65ns]", got)
	}
	if got := tr.Total("engine.exec"); got != 30 {
		t.Fatalf("exec total = %v", got)
	}
	if got := tr.Durations("gdb.leg"); len(got) != 1 || got[0] != 200 {
		t.Fatalf("leg durations = %v", got)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 4 || doc.Spans[child1].Parent != q || doc.Spans[q].Req != 7 {
		t.Fatalf("spans file = %+v", doc.Spans)
	}

	var nilTracer *Tracer
	if id := nilTracer.Add("x", at(0), at(1), -1, 0); id != -1 {
		t.Fatalf("nil tracer Add = %d", id)
	}
	nilTracer.SetEnd(0, at(1))
	nilTracer.Adopt(0, []int{1})
}
