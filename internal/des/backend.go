package des

import (
	"fmt"
	"os"
)

// Backend names the event-queue data structure behind a Simulator. There
// is one: the indexed binary min-heap. The type survives so perfbench can
// record which queue a measurement used.
type Backend int

// BackendHeap is the indexed binary min-heap keyed by (time, key,
// insertion order).
const BackendHeap Backend = 0

// String returns the backend name accepted by ROUTESYNC_DES_BACKEND.
func (Backend) String() string { return "heap" }

// BackendEnv is the environment variable consulted by DefaultBackend.
const BackendEnv = "ROUTESYNC_DES_BACKEND"

// DefaultBackend returns the backend New uses. ROUTESYNC_DES_BACKEND may
// be unset or "heap"; any other value — including the retired "calendar"
// — panics, so a stale environment cannot quietly measure something other
// than what it names.
func DefaultBackend() Backend {
	if v := os.Getenv(BackendEnv); v != "" && v != "heap" {
		panic(fmt.Sprintf("des: %s=%q: unknown backend (want \"heap\")", BackendEnv, v))
	}
	return BackendHeap
}
