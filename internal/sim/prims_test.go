package sim

import (
	"testing"

	"cord/internal/memsys"
)

func TestMutexMutualExclusion(t *testing.T) {
	al := memsys.NewAllocator()
	m := NewMutex(al)
	inCS := al.Alloc(1).Word(0)
	viol := al.Alloc(1).Word(0)
	prog := Program{
		Name:    "mutex",
		Threads: 4,
		Body: func(th int, env *Env) {
			for i := 0; i < 15; i++ {
				m.Lock(env)
				if env.Read(inCS) != 0 {
					env.Write(viol, 1)
				}
				env.Write(inCS, 1)
				env.Compute(7)
				env.Write(inCS, 0)
				m.Unlock(env)
				env.Compute(3)
			}
		},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := New(Config{Seed: seed, Jitter: 9}, prog).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Mem.Load(viol) != 0 {
			t.Fatalf("seed %d: mutual exclusion violated", seed)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	al := memsys.NewAllocator()
	bar := NewBarrier(al, 4)
	counts := al.Alloc(1).Word(0)
	mu := NewMutex(al)
	bad := al.Alloc(1).Word(0)
	const rounds = 8
	prog := Program{
		Name:    "barrier-gen",
		Threads: 4,
		Body: func(th int, env *Env) {
			for r := 0; r < rounds; r++ {
				mu.Lock(env)
				env.Write(counts, env.Read(counts)+1)
				mu.Unlock(env)
				bar.Wait(env)
				// Immediately after the barrier everyone must see exactly
				// 4*(r+1) arrivals.
				if env.Read(counts) != uint64(4*(r+1)) {
					env.Write(bad, 1)
				}
				bar.Wait(env)
			}
		},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		res, err := New(Config{Seed: seed, Jitter: 9}, prog).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Hung {
			t.Fatalf("seed %d hung", seed)
		}
		if res.Mem.Load(bad) != 0 {
			t.Fatalf("seed %d: barrier generation leaked", seed)
		}
	}
}

func TestFlagMonotoneWaits(t *testing.T) {
	al := memsys.NewAllocator()
	f := NewFlag(al)
	got := al.Alloc(4)
	prog := Program{
		Name:    "flag-mono",
		Threads: 2,
		Body: func(th int, env *Env) {
			if th == 0 {
				for v := uint64(1); v <= 4; v++ {
					env.Compute(20)
					f.Set(env, v)
				}
				return
			}
			for v := uint64(1); v <= 4; v++ {
				f.WaitAtLeast(env, v)
				env.Write(got.Word(int(v)-1), env.SyncRead(f.Addr))
			}
		},
	}
	res, err := New(Config{Seed: 2, Jitter: 5}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		if res.Mem.Load(got.Word(v-1)) < uint64(v) {
			t.Fatalf("wait %d observed %d", v, res.Mem.Load(got.Word(v-1)))
		}
	}
}

func TestUnlockWithoutInjectionReleases(t *testing.T) {
	// A lock released by one thread must be acquirable by another, across
	// many handoffs, without loss.
	al := memsys.NewAllocator()
	m := NewMutex(al)
	token := al.Alloc(1).Word(0)
	prog := Program{
		Name:    "handoff",
		Threads: 3,
		Body: func(th int, env *Env) {
			for i := 0; i < 20; i++ {
				m.Lock(env)
				env.Write(token, env.Read(token)+1)
				m.Unlock(env)
			}
		},
	}
	res, err := New(Config{Seed: 8, Jitter: 11}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Mem.Load(token); v != 60 {
		t.Fatalf("token = %d, want 60", v)
	}
}

// TestAccumulator: the posted read-modify-writes and folds write what their
// parked spellings write, across blocking primitives and contended locks.
// Each thread adds into a shared counter under a lock, folds three private
// words into a sum it stores once before and once after a lock round trip
// (which must leave the accumulator alone), and copies a word with AddTo.
func TestAccumulator(t *testing.T) {
	al := memsys.NewAllocator()
	m := NewMutex(al)
	ctr := al.Alloc(1).Word(0)
	priv := al.Alloc(4 * 8)
	prog := Program{
		Name:    "accumulator",
		Threads: 4,
		Init: func(mem *memsys.Memory) {
			for th := 0; th < 4; th++ {
				for k := 0; k < 3; k++ {
					mem.Store(priv.Word(th*8+k), uint64(10*th+k+1))
				}
			}
		},
		Body: func(th int, env *Env) {
			for i := 0; i < 10; i++ {
				m.Lock(env)
				env.Add(ctr, 2)
				m.Unlock(env)
			}
			base := th * 8
			env.Load(priv.Word(base))
			env.LoadAdd(priv.Word(base + 1))
			env.LoadAdd(priv.Word(base + 2))
			env.Store(priv.Word(base+3), 0)
			m.Lock(env)
			m.Unlock(env)
			env.Store(priv.Word(base+4), 100)
			env.AddTo(priv.Word(base+5), priv.Word(base+1), 7)
		},
	}
	res, err := New(Config{Seed: 5, Jitter: 9}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mem.Load(ctr); got != 80 {
		t.Fatalf("counter %d, want 80", got)
	}
	for th := 0; th < 4; th++ {
		sum := uint64(30*th + 6)
		want := []uint64{sum, sum + 100, uint64(10*th+2) + 7}
		for k, w := range want {
			if got := res.Mem.Load(priv.Word(th*8 + 3 + k)); got != w {
				t.Errorf("thread %d word %d = %d, want %d", th, 3+k, got, w)
			}
		}
	}
}
