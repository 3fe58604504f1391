package cep

import (
	"errors"
	"testing"
)

// orderedEvents builds hand-made events with increasing arrival serials,
// whatever their timestamps.
type orderedEvents struct{ serial int64 }

func (o *orderedEvents) ev(s *Schema, ts Time, user float64) *Event {
	o.serial++
	e := NewEvent(s, ts, user)
	e.Serial = o.serial
	return e
}

// TestSessionRejectsOutOfOrder pins the intake's timestamp-order contract on
// both feed shapes (broadcast and index-routed sharing): a Submit older than
// the watermark and a SubmitBatch that decreases internally or starts before
// the watermark are refused whole with ErrOutOfOrder, take no sequence
// numbers, are counted in EventsRejected and never reach a query — while
// equal timestamps, within a batch and against the watermark, pass.
func TestSessionRejectsOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"broadcast", SessionConfig{}},
		{"indexed-shared", SessionConfig{FilterIndex: true, ShareSubplans: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(tc.cfg)
			if err := s.Register(QueryConfig{Name: "q", Query: `PATTERN SEQ(Login l, Alert a)
				WHERE l.user = a.user WITHIN 10 s`}); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			var o orderedEvents
			rejected := func(err error) {
				t.Helper()
				if !errors.Is(err, ErrOutOfOrder) {
					t.Fatalf("err = %v, want ErrOutOfOrder", err)
				}
			}
			accepted := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			accepted(s.Submit(o.ev(loginSchema, 1000, 7)))
			accepted(s.Submit(o.ev(alertSchema, 3000, 7)))
			// Older than the watermark: refused, so user 9's login never
			// reaches the query and the equal-timestamp alert below finds
			// nothing to pair with.
			rejected(s.Submit(o.ev(loginSchema, 2000, 9)))
			accepted(s.Submit(o.ev(alertSchema, 3000, 9)))
			// Decreasing inside the batch: refused whole.
			rejected(s.SubmitBatch([]*Event{
				o.ev(loginSchema, 4000, 5),
				o.ev(alertSchema, 3500, 5),
			}))
			// In order inside, but starting before the watermark.
			rejected(s.SubmitBatch([]*Event{
				o.ev(loginSchema, 2500, 8),
				o.ev(alertSchema, 5000, 8),
			}))
			if m := s.Metrics(); m.Seq != 3 || m.EventsRejected != 5 || m.EventsSubmitted != 3 {
				t.Fatalf("seq=%d rejected=%d submitted=%d, want 3, 5, 3",
					m.Seq, m.EventsRejected, m.EventsSubmitted)
			}
			// Equal timestamps within the batch and against the watermark.
			accepted(s.SubmitBatch([]*Event{
				o.ev(loginSchema, 3000, 4),
				o.ev(loginSchema, 3000, 3),
				o.ev(alertSchema, 6000, 4),
			}))
			ms, err := s.Flush()
			if err != nil {
				t.Fatal(err)
			}
			var users []float64
			for _, m := range ms {
				users = append(users, m.Events()[0].MustAttr("user"))
			}
			if len(users) != 2 || users[0] != 7 || users[1] != 4 {
				t.Fatalf("matched users %v, want [7 4]: a rejected event was delivered", users)
			}
			if m := s.Metrics(); m.Seq != 6 || m.EventsRejected != 5 || m.BatchesSubmitted != 1 {
				t.Fatalf("seq=%d rejected=%d batches=%d, want 6, 5, 1",
					m.Seq, m.EventsRejected, m.BatchesSubmitted)
			}
		})
	}
}

// TestSessionOrderCheckLifecyclePrecedence: a closed or never-started
// session reports its lifecycle error even for an event the ordering check
// would refuse, and a refused submission leaves the watermark where it was.
func TestSessionOrderCheckLifecyclePrecedence(t *testing.T) {
	var o orderedEvents
	s := NewSession(SessionConfig{})
	if err := s.Register(QueryConfig{Name: "q", Query: `PATTERN SEQ(Login l, Alert a) WITHIN 10 s`}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(o.ev(loginSchema, 5000, 1)); err == nil || errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("Submit before Start = %v, want not-started", err)
	}
	if err := s.Submit(o.ev(loginSchema, 1000, 1)); err == nil || errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("older Submit before Start = %v, want not-started", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The ts=5000 submission was refused, so it set no watermark.
	if err := s.Submit(o.ev(loginSchema, 1000, 1)); err != nil {
		t.Fatalf("first Submit after Start = %v: a refused pre-Start submission moved the watermark", err)
	}
	if err := s.Submit(o.ev(loginSchema, 6000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(o.ev(loginSchema, 1000, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("older Submit after Close = %v, want ErrClosed", err)
	}
	if err := s.SubmitBatch([]*Event{o.ev(loginSchema, 9000, 1), o.ev(loginSchema, 8000, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("disordered SubmitBatch after Close = %v, want ErrClosed", err)
	}
}
