package audit

import "sync"

// runTasksWorker is the work-stealing pool core: tasks [0, n) are dealt
// round-robin into per-worker deques; a worker pops from the tail of its
// own deque and, when empty, steals half of the largest other deque.
// Each f(w, i) call sees a stable worker id w, so callers can give each
// worker private state without locking.
func runTasksWorker(n, workers int, f func(w, i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	deques := make([]*deque, workers)
	for w := range deques {
		deques[w] = &deque{}
	}
	for i := 0; i < n; i++ {
		d := deques[i%workers]
		d.tasks = append(d.tasks, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := deques[w]
			for {
				i, ok := own.pop()
				if !ok {
					if !own.stealFrom(deques, w) {
						return
					}
					continue
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// deque is one worker's mutex-protected task stack.
type deque struct {
	mu    sync.Mutex
	tasks []int
}

func (d *deque) pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return 0, false
	}
	i := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return i, true
}

// stealFrom moves half of the largest victim deque into d. It returns
// false when every deque is empty (the pool is drained: no worker can
// produce new tasks, so empty-everywhere is a stable termination state).
func (d *deque) stealFrom(all []*deque, self int) bool {
	victim, most := -1, 0
	for w, v := range all {
		if w == self {
			continue
		}
		v.mu.Lock()
		l := len(v.tasks)
		v.mu.Unlock()
		if l > most {
			victim, most = w, l
		}
	}
	if victim < 0 {
		return false
	}
	v := all[victim]
	v.mu.Lock()
	half := len(v.tasks) / 2
	if half == 0 && len(v.tasks) > 0 {
		half = len(v.tasks)
	}
	stolen := append([]int(nil), v.tasks[:half]...)
	v.tasks = v.tasks[:copy(v.tasks, v.tasks[half:])]
	v.mu.Unlock()
	if len(stolen) == 0 {
		return false
	}
	d.mu.Lock()
	d.tasks = append(d.tasks, stolen...)
	d.mu.Unlock()
	return true
}
