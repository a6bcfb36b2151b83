//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// spawn wraps thread t's Body in a pull coroutine. The Body runs only inside
// t.next, up to the Env call that parks it (when its own queue drains first,
// that call returns in place, see Engine.wait) or its return, and inside
// t.stop, which makes the pending yield return false so that Engine.wait
// panics errAborted and the Body unwinds. The recover below keeps every Body
// panic inside the coroutine: errAborted is a clean exit, anything else
// becomes t.err. A panic the engine raises while scheduling never gets here:
// Engine.scheduleCaught catches it and Run re-raises it.
func (e *Engine) spawn(t *threadCtx) {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				t.err = fmt.Errorf("sim: thread %d panicked: %v", t.id, r)
			}
		}()
		t.yield = yield
		e.prog.Body(t.id, &t.env)
	})
}
