package netsim

import (
	"strings"
	"testing"
)

// TestDefaultSyncModeEnv checks the environment override, and that an
// unrecognized value panics naming the accepted ones.
func TestDefaultSyncModeEnv(t *testing.T) {
	for env, want := range map[string]SyncMode{
		"":             SyncConservative,
		"conservative": SyncConservative,
		"optimistic":   SyncOptimistic,
	} {
		t.Setenv(SyncModeEnv, env)
		if got := DefaultSyncMode(); got != want {
			t.Errorf("DefaultSyncMode with %s=%q = %v, want %v", SyncModeEnv, env, got, want)
		}
	}
	t.Setenv(SyncModeEnv, "bogus")
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"conservative"`) || !strings.Contains(msg, `"optimistic"`) {
			t.Errorf("DefaultSyncMode with %s=bogus panicked with %q, want a message naming conservative and optimistic", SyncModeEnv, msg)
		}
	}()
	DefaultSyncMode()
}
