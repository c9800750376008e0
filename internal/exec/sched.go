package exec

import (
	"context"
	"errors"
	"iter"
	"slices"
	"time"

	"mqo/internal/physical"
	"mqo/internal/storage"
)

// errStopped is what a parked task's scan reports when its run stops it: an
// error elsewhere, or a cancelled context, ends the whole run.
var errStopped = errors.New("exec: run stopped")

// A task is one materialization or one query root of a run, executed as a
// coroutine: it runs until a scan of it needs rows it has not been fed, or a
// temp it needs is being built by another task, and parks there. Only one
// task runs at a time, so a run is as serial — and its page faults as exact
// — as when its trees were drained one after the other.
type task struct {
	b    builder // the task's own: so are its profiler and, once it invokes, its Env
	root *physical.PlanNode
	mat  bool     // root is a materialization to compute, not a query to answer
	tree Iterator // a query's operators when they are given, not built from root
	deps []*task  // the materializations it reads, which must commit first

	next  func() (struct{}, bool) // the coroutine, nil until the task starts
	stop  func()
	yield func(struct{}) bool
	state taskState
	wait  *storage.HeapCursor // parked: the scan's cursor it waits to be fed
	latch string              // parked: the temp it waits for another task to build
	err   error

	// A query root's answer.
	res QueryResult
}

type taskState uint8

const (
	idle taskState = iota // not started
	parked
	running
	done
)

// sched runs a batch's tasks over shared passes (storage.Pass): every scan of
// one base table, temp or cache table that asks for rows while the others
// are still gathering is fed by one pass, which faults each page once and
// locates each record once for all of them.
//
// The driver resumes every task that can run, in batch order, and only when
// none can does it read pages: one page of each pass that has read some and
// has a task waiting on it or, when there is none, the first page of the
// waited-for pass over the smallest file. So the scans of dimension tables
// finish while the fact-table pass waits, and the tasks that reach the fact
// table after their dimensions join it before it starts. A task that reaches
// a file whose pass has started waits for another pass, which starts once the
// first has no waiting task, and reads the file in order from its start.
type sched struct {
	ctx      context.Context
	env      *Env // the run's, whose test hooks hear of every shared pass
	tasks    []*task
	cur      *task // the running task
	pending  map[*storage.HeapFile]*storage.Pass
	building map[string]bool               // temps a task is computing
	owners   map[*storage.HeapCursor]*task // profiled runs: each waiting cursor's task
	steps    []*storage.Pass               // scratch of advance
	fed      []*storage.HeapCursor         // scratch of step
	seen     map[*physical.PlanNode]bool   // scratch of add
}

func newSched(ctx context.Context, env *Env) *sched {
	s := &sched{ctx: ctx, env: env, pending: map[*storage.HeapFile]*storage.Pass{}, building: map[string]bool{}}
	if env.Profile {
		s.owners = map[*storage.HeapCursor]*task{}
	}
	return s
}

// add makes a task that computes the materialization root (mat) or answers
// the query root, run by a copy of b. The task depends on the tasks mats
// holds for the materializations at or below root, the ones it may read (a
// materialization's own task is not in mats yet when it is added). When b
// profiles, the task records profile trees of its own.
func (s *sched) add(b *builder, root *physical.PlanNode, mat bool, mats map[*physical.PlanNode]*task) *task {
	t := &task{b: *b, root: root, mat: mat}
	if b.prof != nil {
		t.b.prof = &profiler{}
	}
	s.tasks = append(s.tasks, t)
	if len(mats) == 0 {
		return t
	}
	if s.seen == nil {
		s.seen = map[*physical.PlanNode]bool{}
	}
	clear(s.seen)
	var walk func(*physical.PlanNode)
	walk = func(pn *physical.PlanNode) {
		if s.seen[pn] {
			return
		}
		s.seen[pn] = true
		if d := mats[pn]; d != nil {
			t.deps = append(t.deps, d)
		}
		for _, c := range pn.Children {
			walk(c)
		}
	}
	walk(root)
	return t
}

// body is what the task does: compute its materialization into its temp, or
// its query's answer.
func (t *task) body() error {
	if t.mat {
		return t.b.materialize(t.root)
	}
	var err error
	if t.tree == nil {
		t.res, err = t.b.answer(t.root)
		return err
	}
	t.res.Schema = t.tree.Schema()
	t.res.Rows, err = drain(t.b.ctx, t.tree)
	return err
}

// run drives the tasks to their end and returns the first error any of them
// met, or the context's. Every task that has started is stopped before it
// returns, so no coroutine outlives the run.
func (s *sched) run() (err error) {
	defer s.stopAll()
	for {
		for ran := true; ran; {
			ran = false
			for _, t := range s.tasks {
				if !s.runnable(t) {
					continue
				}
				if s.resume(t); t.err != nil {
					return t.err
				}
				ran = true
			}
		}
		if s.finished() {
			return nil
		}
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.advance(); err != nil {
			return err
		}
	}
}

// runnable reports whether t can run now: it has not started and every
// materialization it reads has committed, or it is parked and what it waits
// for is there.
func (s *sched) runnable(t *task) bool {
	switch t.state {
	case idle:
		for _, d := range t.deps {
			if d.state != done {
				return false
			}
		}
		return true
	case parked:
		if t.wait != nil {
			return t.wait.Fed()
		}
		return !s.building[t.latch]
	}
	return false
}

func (s *sched) finished() bool {
	for _, t := range s.tasks {
		if t.state != done {
			return false
		}
	}
	return true
}

// resume runs t until it parks or ends.
func (s *sched) resume(t *task) {
	if t.next == nil {
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			t.err = t.body()
		})
	}
	s.cur, t.state, t.wait, t.latch = t, running, nil, ""
	if _, ok := t.next(); ok {
		t.state = parked
	} else {
		t.state = done
	}
	s.cur = nil
}

// stopAll ends every task still parked: its scan reports errStopped, and it
// unwinds — closing its operators — before stopAll goes on.
func (s *sched) stopAll() {
	for _, t := range s.tasks {
		if t.state == parked {
			s.cur = t
			t.stop()
			t.state = done
		}
	}
	s.cur = nil
}

// park suspends the running task until the driver resumes it; err is
// errStopped when the run is stopping instead. A profiled task counts the
// time it was parked, which its operators leave out of their Wall, less the
// share of the pages read meanwhile that step credits it with.
func (t *task) park() error {
	var start time.Duration
	if t.b.prof != nil {
		start = clock()
	}
	ok := t.yield(struct{}{})
	if t.b.prof != nil {
		t.b.prof.parked += clock() - start
	}
	if !ok {
		return errStopped
	}
	return nil
}

// feed is the running task's scans' feed (storage.HeapCursor.SetFeed): it
// has c join a pass if none feeds it and parks the task until c is fed.
func (s *sched) feed(c *storage.HeapCursor) error {
	t := s.cur
	for !c.Fed() {
		if c.Pass() == nil {
			s.attach(c)
		}
		if s.owners != nil {
			s.owners[c] = t
		}
		t.wait = c
		if err := t.park(); err != nil {
			return err
		}
	}
	return nil
}

// attach has c join the pass over its file that has not started, or a new
// one, which other cursors at its position may join until it starts.
func (s *sched) attach(c *storage.HeapCursor) {
	h := c.Heap()
	if p := s.pending[h]; p != nil && p.Join(c) {
		return
	}
	p := h.NewPass()
	p.Join(c)
	if s.pending[h] == nil {
		s.pending[h] = p
	}
}

// await parks the running task until no other task is building the temp
// name; a run without tasks (nil) has no other.
func (s *sched) await(name string) error {
	if s == nil {
		return nil
	}
	t := s.cur
	for s.building[name] {
		t.latch = name
		if err := t.park(); err != nil {
			return err
		}
	}
	return nil
}

// advance reads a page of every started pass a parked task waits on or, when
// there is none, starts the waited-for pass over the smallest file.
func (s *sched) advance() error {
	started, first := s.steps[:0], (*storage.Pass)(nil)
	for _, t := range s.tasks {
		if t.state != parked || t.wait == nil || t.wait.Fed() {
			continue
		}
		switch p := t.wait.Pass(); {
		case p.Started():
			if !slices.Contains(started, p) {
				started = append(started, p)
			}
		case first == nil || p.Heap().NumPages() < first.Heap().NumPages():
			first = p
		}
	}
	s.steps = started
	opening := len(started) == 0
	if opening {
		if first == nil {
			return errors.New("exec: every task of the run waits and no scan can advance")
		}
		if h := first.Heap(); s.pending[h] == first {
			delete(s.pending, h)
		}
		if len(first.Cursors()) > 1 {
			s.env.noteGate("shared pass")
		}
		started = append(started, first)
	}
	for _, p := range started {
		s.step(p)
	}
	if opening && started[0].KeyTested() > 1 {
		s.env.noteGate("shared key gates")
	}
	return nil
}

// step reads p's next page. In a profiled run the time it takes is split
// evenly among the tasks of the cursors it feeds: a scan's Wall is its share
// of the pages it was fed.
func (s *sched) step(p *storage.Pass) {
	if s.owners == nil {
		p.Step()
		return
	}
	s.fed = append(s.fed[:0], p.Cursors()...)
	start := clock()
	p.Step()
	share := (clock() - start) / time.Duration(len(s.fed))
	for _, c := range s.fed {
		if t := s.owners[c]; t != nil {
			t.b.prof.parked -= share
		}
	}
}
