package cli

import (
	"flag"
	"fmt"

	"repro/nocsim"
)

// MeshFlags is the flag block of the single-run commands (nocsim and
// capacity): the fabric, the seed and the window length. After Parse,
// Scenario returns them as a nocsim.Scenario.
type MeshFlags struct {
	fs *flag.FlagSet
	s  nocsim.Scenario
}

// NewMeshFlags registers -width -height -vcs -buffers -packet -routing
// -seed -quick on fs, with the paper's baseline as defaults.
func NewMeshFlags(fs *flag.FlagSet) *MeshFlags {
	m := &MeshFlags{fs: fs}
	d := nocsim.DefaultMesh()
	fs.IntVar(&m.s.Mesh.Width, "width", d.Width, "mesh width")
	fs.IntVar(&m.s.Mesh.Height, "height", d.Height, "mesh height")
	fs.IntVar(&m.s.Mesh.VCs, "vcs", d.VCs, "virtual channels per port")
	fs.IntVar(&m.s.Mesh.BufDepth, "buffers", d.BufDepth, "flit buffers per VC")
	fs.IntVar(&m.s.Mesh.PacketSize, "packet", d.PacketSize, "packet size in flits")
	fs.StringVar((*string)(&m.s.Mesh.Routing), "routing", string(d.Routing), "routing algorithm: xy, yx, o1turn")
	fs.Int64Var(&m.s.Seed, "seed", 1, "random seed")
	fs.BoolVar(&m.s.Quick, "quick", false, "shorter warmup/measurement windows")
	return m
}

// Scenario returns the mesh, seed and quick setting the flags describe.
// An app brings its own mesh, so with appMesh set the dimensions are left
// for Normalized to fill unless -width or -height was given. A zero field
// means "the default" to Normalized, so a zero typed on the command line
// would be silently replaced: Scenario refuses one on the block's numeric
// flags and on the caller's nonZero ones.
func (m *MeshFlags) Scenario(appMesh bool, nonZero ...string) (nocsim.Scenario, error) {
	check := map[string]bool{"width": true, "height": true, "vcs": true, "buffers": true, "packet": true, "seed": true}
	for _, name := range nonZero {
		check[name] = true
	}
	var err error
	m.fs.Visit(func(f *flag.Flag) {
		if err == nil && check[f.Name] && f.Value.String() == "0" {
			err = fmt.Errorf("-%s must be non-zero", f.Name)
		}
	})
	if err != nil {
		return nocsim.Scenario{}, err
	}
	s := m.s
	if appMesh && !wasSet(m.fs, "width") && !wasSet(m.fs, "height") {
		s.Mesh.Width, s.Mesh.Height = 0, 0
	}
	return s, nil
}
