package sim

// Resumes reports how many times the engine switched into a thread's
// coroutine, start-up included.
func (e *Engine) Resumes() uint64 { return e.resumes }
