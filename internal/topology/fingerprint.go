package topology

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// Fingerprint returns a short stable hash of everything that shapes the
// machine's simulated timing: the calibration constants and the full
// topology (links with bandwidths, domains, boards, cache groups, core
// placement). Two machines with equal fingerprints time every collective
// identically, so a decision table or a memoized measurement transfers
// exactly between them and to nothing else.
//
// The hash is computed on the first call and cached on the machine, so
// hot paths (every memo key names its machine) pay for it once per
// machine, not once per cell. It is safe for concurrent use; the machine
// must not be mutated after the first call.
func (m *Machine) Fingerprint() string {
	m.fpOnce.Do(func() { m.fp = m.fingerprint() })
	return m.fp
}

// fingerprint hashes the machine's canonical text. The text format is
// frozen: committed decision tables and on-disk memo entries are keyed by
// its hash, so any change to it orphans them.
func (m *Machine) fingerprint() string {
	var b strings.Builder
	s := m.Spec
	fmt.Fprintf(&b, "%s|spec %g %g %g %g %g %g %g", m.Name,
		s.CoreCopyBW, s.KernelTrap, s.CopySetup, s.PinPerPage, s.CtrlLatency, s.Flops, s.DMABw)
	for _, l := range m.Links {
		fmt.Fprintf(&b, "|link %d %s %g", l.Index, l.Name, l.BW)
		if l.Lat != 0 {
			// Emitted only when set so latency-free machines (every
			// single-node model) keep their pre-cluster fingerprints and
			// committed decision tables stay valid.
			fmt.Fprintf(&b, " lat%g", l.Lat)
		}
	}
	for _, d := range m.Domains {
		fmt.Fprintf(&b, "|dom %d v%d b%d", d.ID, d.Vertex, d.Board)
		for _, c := range d.Cores {
			fmt.Fprintf(&b, " c%d", c.ID)
		}
	}
	for _, c := range m.Cores {
		g := -1
		if c.Group != nil {
			g = c.Group.ID
		}
		fmt.Fprintf(&b, "|core %d v%d g%d", c.ID, c.Vertex, g)
	}
	for _, g := range m.Groups {
		fmt.Fprintf(&b, "|grp %d v%d sz%d", g.ID, g.Vertex, g.Size)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}
