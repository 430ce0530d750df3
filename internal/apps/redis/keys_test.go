package redis

import (
	"strconv"
	"testing"
)

// TestKeyNamesSpellKeyPlusIndex: setup's preloaded names are the
// strings "key"+i, inside the table and past it.
func TestKeyNamesSpellKeyPlusIndex(t *testing.T) {
	for i := range 3 * len(keyNames) {
		if got, want := keyName(i), "key"+strconv.Itoa(i); got != want {
			t.Fatalf("keyName(%d) = %q, want %q", i, got, want)
		}
	}
}
