package server

import (
	"time"

	"repro/internal/wire"
)

// This file implements wire.Backend on *Server: each method is an
// owner check, a lookup, the session lock, and one call into the apply
// layer (apply.go) that the /v1 HTTP handlers call too — same session
// table, same locks, same WAL events — so the two transports are
// tuple-for-tuple equivalent by construction. The differential tests in
// wire_test.go hold that equivalence across all 8 strategies anyway.

// wireSession resolves a wire request's session: NOT_OWNER when the
// ring places it on another node, NOT_FOUND when it names nothing.
func (s *Server) wireSession(id string) (*liveSession, error) {
	if err := s.checkWireOwner(id); err != nil {
		return nil, err
	}
	return s.lookup(id)
}

// WireCreate implements wire.Backend: POST /v1/sessions semantics.
func (s *Server) WireCreate(csv, strategyName string, seed int64) (string, error) {
	id, _, err := s.create(csv, strategyName, seed)
	return id, err
}

// WireStep implements wire.Backend: the wire form of POST /step, with
// the whole answer batch plus the follow-up proposal under one write
// lock. An answer that fails stops the batch — earlier answers stand,
// exactly as if they had arrived in separate frames; the error frame
// reports the first failure. k selects the proposal (see propose).
func (s *Server) WireStep(id string, answers []wire.Answer, k int, out *wire.StepResult) error {
	ls, err := s.wireSession(id)
	if err != nil {
		return err
	}
	out.Applied = out.Applied[:0]
	out.Proposals = out.Proposals[:0]
	out.Done = false
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, a := range answers {
		newly, err := s.applyAnswer(id, ls, a.Index, a.Label)
		if err != nil {
			return err
		}
		out.Applied = append(out.Applied, wire.AnswerOutcome{
			NewlyImplied: len(newly),
			Informative:  ls.sess.Progress().Informative,
		})
	}
	if out.Proposals, err = s.propose(id, ls, k, out.Proposals); err != nil {
		return err
	}
	out.Done = ls.sess.Done()
	return nil
}

// WireAppend implements wire.Backend: POST /tuples semantics with the
// rows encoding (cells parsed under the session's pinned typing). The
// rows are views into the connection's frame buffer; ParseRows copies
// what the session keeps. Parsing reads only the session's immutable
// schema and typing, so it runs before the write lock is taken.
func (s *Server) WireAppend(id string, rows [][]string) (wire.AppendResult, error) {
	ls, err := s.wireSession(id)
	if err != nil {
		return wire.AppendResult{}, err
	}
	tuples, err := ls.sess.ParseRows(rows)
	if err != nil {
		return wire.AppendResult{}, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	newly, err := s.applyAppend(id, ls, tuples)
	if err != nil {
		return wire.AppendResult{}, err
	}
	return wire.AppendResult{
		Appended:     len(tuples),
		NewlyImplied: len(newly),
		Informative:  ls.sess.Progress().Informative,
		Done:         ls.sess.Done(),
	}, nil
}

// WireResult implements wire.Backend: the hot-path subset of GET
// /result (predicate + SQL; the demo certainty panel stays HTTP-only).
func (s *Server) WireResult(id string) (wire.ResultData, error) {
	ls, err := s.wireSession(id)
	if err != nil {
		return wire.ResultData{}, err
	}
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	res, _, err := result(ls)
	return res, err
}

// WireDelete implements wire.Backend: DELETE /sessions/{id} semantics.
func (s *Server) WireDelete(id string) error {
	if err := s.checkWireOwner(id); err != nil {
		return err
	}
	return s.deleteSession(id)
}

// RecordWireOp implements wire.OpRecorder: wire ops land in the same
// /stats endpoint table as the HTTP routes, under "WIRE <op>" labels.
func (s *Server) RecordWireOp(pattern string, d time.Duration, isErr bool) {
	s.metrics.record(pattern, d, isErr)
}
