package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	want, err := parseOnly(" e3,E14 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["E3"] || !want["E14"] {
		t.Fatalf("parseOnly = %v", want)
	}
	if all, err := parseOnly(""); err != nil || len(all) != 0 {
		t.Fatalf("empty -only = %v, %v; want every experiment", all, err)
	}
	_, err = parseOnly("E3,E99")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, `"E99"`) || !strings.Contains(msg, "F1, E1, E2") {
		t.Fatalf("error should name the bad id and the valid ones: %v", err)
	}
}

// TestRunnersCoverIndex keeps the runner table and the index in step, so
// every id parseOnly accepts has something to run.
func TestRunnersCoverIndex(t *testing.T) {
	for _, e := range index {
		if runners[e.id] == nil {
			t.Errorf("index lists %s but no runner is registered", e.id)
		}
	}
}
