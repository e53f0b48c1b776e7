package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleflight: concurrent askers of one key share one build and
// its result; a failed build is shared too, and a panicking build
// re-panics in every asker instead of handing later ones a zero value.
func TestMemoSingleflight(t *testing.T) {
	var m memo[int, *int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	got := make([]*int, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.get(7, func() (*int, error) {
				builds.Add(1)
				x := 42
				return &x, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key, want 1", builds.Load())
	}
	for _, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatal("askers did not share one result")
		}
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.get(8, func() (*int, error) { return nil, boom }); err != boom {
			t.Fatalf("ask %d: err = %v, want the build's error", i, err)
		}
	}

	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ask %d of a panicking build returned normally", i)
				}
			}()
			m.get(9, func() (*int, error) { panic("build failed") })
		}()
	}
}
