// Package fixture exercises the cooperative-cancellation convention:
// unbounded loops on context-bearing paths must consult the context at
// a bounded interval — directly, through a stored Done channel, through
// a closure over one, or by delegating to a method of the
// context-carrying receiver.
package fixture

import "context"

// worklistRacy drains without ever looking up; a hung client keeps the
// worker forever.
func worklistRacy(ctx context.Context, wl []int) int {
	n := 0
	for len(wl) > 0 { // want `never polls the context`
		n += wl[0]
		wl = wl[1:]
	}
	return n
}

// worklistPolled checks ctx.Err() each iteration; not flagged.
func worklistPolled(ctx context.Context, wl []int) error {
	for len(wl) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		wl = wl[1:]
	}
	return nil
}

// closurePoll is the solver's pattern: a helper closure over a stored
// Done channel counts as polling.
func closurePoll(ctx context.Context, wl []int) {
	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	for len(wl) > 0 {
		if canceled() {
			return
		}
		wl = wl[1:]
	}
}

// counted loops terminate with their bound and are exempt.
func counted(ctx context.Context) int {
	s := 0
	for i := 0; i < 1000; i++ {
		s += i
	}
	return s
}

// executor stores its cancellation signal the way the interpreter does.
type executor struct {
	done <-chan struct{}
	pc   int
}

func (ex *executor) tick() bool {
	select {
	case <-ex.done:
		return false
	default:
		return true
	}
}

// run delegates polling to a method on the context-bearing receiver;
// not flagged.
func (ex *executor) run(stmts []int) {
	for len(stmts) > 0 {
		if !ex.tick() {
			return
		}
		stmts = stmts[1:]
	}
}

// spin touches neither the done field nor any method of the receiver.
func (ex *executor) spin(n int) {
	for n > 0 { // want `never polls the context`
		n--
	}
}

// stageLoop is the bounded-queue worker idiom: an unbounded stage
// loop whose every iteration selects between its input queue and the
// context. The select mentions ctx, so the loop passes without
// suppression — the convention any queue worker can rely on.
func stageLoop(ctx context.Context, in <-chan int, out chan<- int) {
	for {
		select {
		case <-ctx.Done():
			return
		case v, ok := <-in:
			if !ok {
				return
			}
			select {
			case out <- v + 1:
			case <-ctx.Done():
				return
			}
		}
	}
}

// rangeStage drains a queue with range; the loop terminates when the
// upstream closes the channel, so it is exempt like any range loop.
func rangeStage(ctx context.Context, in <-chan int) int {
	n := 0
	for v := range in {
		n += v
	}
	return n
}

// stageLoopRacy receives and forwards without ever consulting the
// context: a full downstream queue wedges the worker forever even
// after every request died.
func stageLoopRacy(ctx context.Context, in <-chan int, out chan<- int) {
	for { // want `never polls the context`
		v, ok := <-in
		if !ok {
			return
		}
		out <- v
	}
}
