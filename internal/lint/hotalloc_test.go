package lint

import "testing"

func TestHotalloc(t *testing.T) {
	RunFixture(t, Hotalloc, "hotalloc/internal/solver")
}

func TestHotallocOnlyFiresOnEventPath(t *testing.T) {
	RunFixture(t, Hotalloc, "hotalloc/a")
}

func TestHotallocCoversBusPublish(t *testing.T) {
	RunFixture(t, Hotalloc, "hotalloc/internal/obs")
}

func TestHotallocCoversJobEventLog(t *testing.T) {
	RunFixture(t, Hotalloc, "hotalloc/internal/jobs")
}
