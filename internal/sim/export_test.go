package sim

// Resumes reports how many times the engine switched into a thread's
// coroutine, start-up included.
func (e *Engine) Resumes() uint64 { return e.resumes }

// SetPostCap sets the queue length at which a posting thread parks (at most
// 64, the default). At 1 every call parks until the engine has executed it.
func (e *Engine) SetPostCap(n int) { e.postCap = n }
