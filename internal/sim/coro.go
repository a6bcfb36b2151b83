//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// spawn wraps thread t's Body in a pull coroutine. The Body runs only inside
// t.next, up to the Env call that parks it (the calls before it are served in
// place, see Engine.serve) or its return, and inside t.stop, which makes the
// pending yield return false so that Env.do panics errAborted and the Body
// unwinds. The recover below keeps every Body panic inside the coroutine:
// errAborted is a clean exit, anything else becomes t.err. A panic the engine
// raises while serving a request never gets here: Engine.service catches it
// and Run re-raises it.
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
