package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/noc"
)

// FuzzInjectionTrace feeds the trace reader arbitrary bytes, as
// LoadInjection reads the file a scenario's TraceRef names. ReadInjection
// → Validate → MeanRate and Matrix never panic, and a trace that
// validates has a finite, non-negative mean rate and a traffic matrix
// that counts each of its events once.
func FuzzInjectionTrace(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "nocsim", "testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var buf bytes.Buffer
	if err := exampleTrace().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"width":-3,"height":3,"packet_size":4,"cycles":10,"events":[{"cycle":1,"src":-1,"dst":9}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadInjection(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = tr.MeanRate() // unvalidated: any value, but no panic
		// Validate against the mesh the header names when it is one a
		// scenario can have, so most decoded traces get past the header
		// check, and against the paper's 5x5 mesh otherwise.
		cfg := noc.DefaultConfig()
		if tr.Width >= 2 && tr.Width <= 16 && tr.Height >= 2 && tr.Height <= 16 && tr.PacketSize >= 1 {
			cfg.Width, cfg.Height, cfg.PacketSize = tr.Width, tr.Height, tr.PacketSize
		}
		if tr.Validate(cfg) != nil {
			return
		}
		if r := tr.MeanRate(); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("mean rate %v", r)
		}
		m := tr.Matrix()
		total := 0.0
		for _, row := range m {
			if len(row) != cfg.Nodes() {
				t.Fatalf("matrix row of %d entries for %d nodes", len(row), cfg.Nodes())
			}
			for _, v := range row {
				total += v
			}
		}
		if len(m) != cfg.Nodes() || total != float64(len(tr.Events)) {
			t.Fatalf("%dx? matrix holding %v packets for %d nodes and %d events", len(m), total, cfg.Nodes(), len(tr.Events))
		}
	})
}
