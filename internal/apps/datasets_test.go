package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestDatasetsPinned hashes every shard the suite generates, in All()
// order, at two scales. Every simulated result and every benchmark digest
// depends on these bytes, so a generator, the integer formatter or the
// RMAT sampler may get faster but must not move one of them.
func TestDatasetsPinned(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  string
	}{
		{1.0 / 512, "920e2f4caab86fc4a12d9ac6acec391ba0b2030e4d56dc6048e0c75b8355d379"},
		{1.0 / 8192, "d4ae21dd9ea485a270e3c0946e4648c90185bb7cdd831ab4df22eefd340e8b55"},
	} {
		h := sha256.New()
		for _, app := range All() {
			for i, sh := range app.Generate(c.scale, 20160618) {
				fmt.Fprintf(h, "%s/%d %d\n", app.Name, i, len(sh))
				h.Write(sh)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("scale %v: datasets hash %s, want %s", c.scale, got, c.want)
		}
	}
}
