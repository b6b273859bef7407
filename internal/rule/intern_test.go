package rule

import (
	"strconv"
	"testing"
)

func internedPairs() int {
	internTab.RLock()
	defer internTab.RUnlock()
	return internTab.n
}

// TestInternTableBounded: interning three times the cap of distinct pairs
// (as a stream of never-seen sources would) never holds more than the cap,
// and equal inputs still give equal strings before and after a drop.
func TestInternTableBounded(t *testing.T) {
	first := InternDotted("dev-first", "switch")
	for i := 0; i < 3*maxInterned; i++ {
		a, b := "app"+strconv.Itoa(i), "input"+strconv.Itoa(i%7)
		s := InternBanged(a, b)
		if s != a+"!"+b {
			t.Fatalf("InternBanged(%q, %q) = %q", a, b, s)
		}
		if again := InternBanged(a, b); again != s {
			t.Fatalf("repeat InternBanged(%q, %q) = %q, first %q", a, b, again, s)
		}
		if n := internedPairs(); n > maxInterned {
			t.Fatalf("after %d pairs the table holds %d, cap %d", i+1, n, maxInterned)
		}
	}
	if got := InternDotted("dev-first", "switch"); got != first || got != "dev-first.switch" {
		t.Fatalf("InternDotted after drops = %q, before %q", got, first)
	}
}
