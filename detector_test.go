package cep

import (
	"errors"
	"testing"
)

// TestDetectorContract drives every runtime flavor (and the Session front
// door) through the shared Detector protocol: nil events are refused with
// ErrNilEvent, Flush ends the stream, post-Flush use returns ErrClosed, and
// Close is idempotent.
func TestDetectorContract(t *testing.T) {
	pattern := func(t *testing.T) *Pattern {
		p, err := ParsePattern(`PATTERN SEQ(Login l, Alert a) WITHIN 10 s`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	flavors := []struct {
		name  string
		build func(t *testing.T) Detector
	}{
		{"Runtime", func(t *testing.T) Detector {
			rt, err := New(pattern(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}},
		{"AdaptiveRuntime", func(t *testing.T) Detector {
			rt, err := NewAdaptive(pattern(t), nil, AdaptiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}},
		{"PartitionedRuntime", func(t *testing.T) Detector {
			pr, err := NewPartitioned(pattern(t), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pr
		}},
		{"ShardedRuntime", func(t *testing.T) Detector {
			sr, err := NewSharded(pattern(t), nil, nil, ShardConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return sr
		}},
		{"Session", func(t *testing.T) Detector {
			s := NewSession(SessionConfig{})
			if err := s.Register(QueryConfig{Name: "q", Pattern: pattern(t)}); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, f := range flavors {
		t.Run(f.name, func(t *testing.T) {
			d := f.build(t)
			if _, err := d.Process(nil); !errors.Is(err, ErrNilEvent) {
				t.Fatalf("Process(nil) = %v, want ErrNilEvent", err)
			}
			events := Stamp([]*Event{
				NewEvent(loginSchema, 1000, 7),
				NewEvent(alertSchema, 2000, 7),
			})
			var got int
			for _, ev := range events {
				ms, err := d.Process(ev)
				if err != nil {
					t.Fatalf("Process = %v", err)
				}
				got += len(ms)
			}
			fl, err := d.Flush()
			if err != nil {
				t.Fatalf("Flush = %v", err)
			}
			got += len(fl)
			// Concurrent flavors deliver through Flush; sequential ones
			// through Process. Either way the pair must be detected once.
			if got != 1 {
				t.Fatalf("detected %d matches, want 1", got)
			}
			if _, err := d.Process(events[0]); !errors.Is(err, ErrClosed) {
				t.Fatalf("Process after Flush = %v, want ErrClosed", err)
			}
			if _, err := d.Flush(); !errors.Is(err, ErrClosed) {
				t.Fatalf("second Flush = %v, want ErrClosed", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close after Flush = %v, want nil", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("second Close = %v, want nil", err)
			}
		})
	}
	// Close without Flush discards pendings and stays idempotent.
	for _, f := range flavors {
		t.Run(f.name+"/close-first", func(t *testing.T) {
			d := f.build(t)
			if err := d.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
			if _, err := d.Process(Stamp([]*Event{NewEvent(loginSchema, 1000, 7)})[0]); !errors.Is(err, ErrClosed) {
				t.Fatalf("Process after Close = %v, want ErrClosed", err)
			}
		})
	}
}
