package a

import (
	"errors"
	"time"
)

// Local stand-ins with a method-constructor shape: Spans.Start returns a
// Span whose End records the elapsed time.
type Spans struct{}

type Span struct{}

func (s *Spans) Start(rank, phase int) Span { return Span{} }

func (sp Span) End() time.Duration { return 0 }

func work() error { return errors.New("boom") }

func finish(sp Span) {}

type holder struct{ sp Span }

// Clean: the canonical form survives early returns and panics.
func goodDefer(s *Spans) error {
	sp := s.Start(0, 1)
	defer sp.End()
	return work()
}

// Clean: straight-line Start then End, nothing can skip it.
func goodLinear(s *Spans) {
	sp := s.Start(0, 1)
	_ = work()
	sp.End()
}

// Clean: chained Start-End measures an empty phase but closes it.
func goodChained(s *Spans) {
	s.Start(0, 1).End()
}

// Clean: handing the span to another function transfers responsibility.
func goodEscapeArg(s *Spans) {
	sp := s.Start(0, 1)
	finish(sp)
}

// Clean: returning the span transfers responsibility to the caller.
func goodEscapeReturn(s *Spans) Span {
	return s.Start(0, 1)
}

// Clean: a deferred closure ends it.
func goodDeferClosure(s *Spans) error {
	sp := s.Start(0, 1)
	defer func() {
		sp.End()
	}()
	return work()
}

// Clean: stored into a field — whoever owns the struct ends it.
func goodEscapeField(s *Spans, h *holder) {
	sp := s.Start(0, 1)
	h.sp = sp
}

// Bad: the Span result is thrown away; End can never be called.
func badDiscarded(s *Spans) {
	s.Start(0, 1) // want `spanclose: Span result discarded`
}

// Bad: assigned to blank, same hole.
func badBlank(s *Spans) {
	_ = s.Start(0, 1) // want `spanclose: Span result discarded`
}

// Bad: started and simply never ended.
func badNeverEnded(s *Spans) {
	sp := s.Start(0, 1) // want `spanclose: span is started but never ended`
	_ = sp
	_ = work()
}

// Bad: the early return skips the End.
func badEarlyReturn(s *Spans) error {
	sp := s.Start(0, 1) // want `spanclose: span may not be ended on every return path`
	if err := work(); err != nil {
		return err
	}
	sp.End()
	return nil
}

// Stand-ins with the trace package's constructor shapes: package-level
// Start/New returning (Ctx, *Span), StartRemote returning a third value,
// and EndErr as an alternative closer.
type Ctx struct{}

type Remote struct{}

// Local names matter, not import paths: the analyzer matches the
// constructor name and a (possibly pointer) result type named Span.
func Start(c Ctx, name string) (Ctx, *Span)   { return c, &Span{} }
func New(c Ctx, name string) (Ctx, *Span)     { return c, &Span{} }
func StartRemote(c Ctx) (Ctx, *Span, *Remote) { return c, &Span{}, &Remote{} }

func (sp *Span) EndErr(err error) {}

// Clean: multi-result Start, EndErr on the straight line.
func goodMultiEndErr(c Ctx) error {
	c2, sp := Start(c, "op")
	_ = c2
	err := work()
	sp.EndErr(err)
	return err
}

// Clean: New with End via deferred closure.
func goodNewDeferClosure(c Ctx) error {
	_, sp := New(c, "op")
	defer func() {
		sp.EndErr(nil)
	}()
	return work()
}

// Clean: three-result StartRemote, ended before the conditional return.
func goodStartRemote(c Ctx) error {
	_, sp, rem := StartRemote(c)
	_ = rem
	err := work()
	sp.EndErr(err)
	if err != nil {
		return err
	}
	return nil
}

// Clean: span escapes by return — the caller owns it now.
func goodMultiEscape(c Ctx) (Ctx, *Span) {
	c2, sp := Start(c, "op")
	return c2, sp
}

// Bad: Span result bound to blank in a multi-assign.
func badMultiBlank(c Ctx) {
	_, _ = Start(c, "op") // want `spanclose: Span result discarded`
}

// Bad: multi-result span never ended.
func badMultiNeverEnded(c Ctx) {
	_, sp := New(c, "op") // want `spanclose: span is started but never ended`
	_ = sp
}

// Bad: the early return between Start and EndErr skips the close.
func badMultiEarlyReturn(c Ctx) error {
	_, sp := Start(c, "op") // want `spanclose: span may not be ended on every return path`
	if err := work(); err != nil {
		return err
	}
	sp.EndErr(nil)
	return nil
}
