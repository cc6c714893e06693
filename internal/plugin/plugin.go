// Package plugin defines the artifacts that move through the plug-in life
// cycle (paper sections 3.1.2 and 3.2): the manifest a developer uploads
// with a binary, the binary itself (an encoded VM program), the
// installation package — binary plus generated PIC/PLC/ECC context — that
// the trusted server pushes to a vehicle, and the versioned State a
// running plug-in exports during a live upgrade so the replacement
// version starts with the old one's accumulated data (see state.go for
// the prefix-compatibility contract).
package plugin

import (
	"fmt"

	"dynautosar/internal/core"
	"dynautosar/internal/vm"
)

// Manifest describes a plug-in binary to the trusted server: its identity,
// the ports it declares, its dependencies and conflicts (checked during
// deployment, paper section 3.2.2) and its resource demands (checked
// against the plug-in SW-C's quotas).
type Manifest struct {
	Name        core.PluginName       `json:"name"`
	Version     string                `json:"version"`
	Developer   string                `json:"developer"`
	Description string                `json:"description"`
	Ports       []core.PluginPortSpec `json:"ports"`
	// Requires lists plug-ins that must already be installed in the
	// vehicle.
	Requires []core.PluginName `json:"requires,omitempty"`
	// Conflicts lists plug-ins that must not be installed alongside.
	Conflicts []core.PluginName `json:"conflicts,omitempty"`
	// MemoryWords is the global-slot quota the plug-in needs in its VM.
	MemoryWords int `json:"memoryWords"`
	// Budget is the requested instruction budget per activation; zero
	// selects the platform default.
	Budget int `json:"budget,omitempty"`
	// External marks plug-ins that communicate with the outside world and
	// therefore need an ECC in their installation package.
	External bool `json:"external,omitempty"`
}

// Validate checks the manifest in isolation.
func (m Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("plugin: manifest without a name")
	}
	if m.MemoryWords < 0 || m.Budget < 0 {
		return fmt.Errorf("plugin: manifest %q has negative resource demands", m.Name)
	}
	seen := make(map[string]bool, len(m.Ports))
	for _, p := range m.Ports {
		if p.Name == "" {
			return fmt.Errorf("plugin: manifest %q declares a port with empty name", m.Name)
		}
		if !p.Direction.Valid() {
			return fmt.Errorf("plugin: manifest %q: port %q has invalid direction", m.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("plugin: manifest %q declares port %q twice", m.Name, p.Name)
		}
		seen[p.Name] = true
	}
	for _, r := range m.Requires {
		if r == m.Name {
			return fmt.Errorf("plugin: manifest %q requires itself", m.Name)
		}
	}
	for _, c := range m.Conflicts {
		if c == m.Name {
			return fmt.Errorf("plugin: manifest %q conflicts with itself", m.Name)
		}
	}
	return nil
}

// Binary is the developer-uploaded artifact: manifest plus encoded
// program.
type Binary struct {
	Manifest Manifest `json:"manifest"`
	// Program is the vm.EncodeProgram form of the plug-in code.
	Program []byte `json:"program"`
}

// FromProgram builds a Binary from an assembled program, deriving the
// manifest's ports and memory demand from the program itself so the two
// cannot disagree.
func FromProgram(p *vm.Program, m Manifest) (Binary, error) {
	encoded, err := vm.EncodeProgram(p)
	if err != nil {
		return Binary{}, err
	}
	if m.Name == "" {
		m.Name = core.PluginName(p.Name)
	}
	if m.Version == "" {
		m.Version = p.Version
	}
	m.Ports = p.PortSpecs()
	m.MemoryWords = int(p.Globals)
	b := Binary{Manifest: m, Program: encoded}
	if err := b.Validate(); err != nil {
		return Binary{}, err
	}
	return b, nil
}

// Validate checks the binary: manifest consistency, program decodability,
// and agreement between manifest ports and program ports.
func (b Binary) Validate() error {
	_, err := b.check(nil)
	return err
}

// check validates the binary against prog, its decoded program, which
// it decodes from Program when nil, and returns the program.
func (b Binary) check(prog *vm.Program) (*vm.Program, error) {
	if err := b.Manifest.Validate(); err != nil {
		return nil, err
	}
	if prog == nil {
		var err error
		if prog, err = vm.DecodeProgram(b.Program); err != nil {
			return nil, fmt.Errorf("plugin: binary %q: %v", b.Manifest.Name, err)
		}
	}
	specs := prog.PortSpecs()
	if len(specs) != len(b.Manifest.Ports) {
		return nil, fmt.Errorf("plugin: binary %q: manifest declares %d ports, program %d",
			b.Manifest.Name, len(b.Manifest.Ports), len(specs))
	}
	for i, s := range specs {
		if s != b.Manifest.Ports[i] {
			return nil, fmt.Errorf("plugin: binary %q: port %d differs between manifest (%+v) and program (%+v)",
				b.Manifest.Name, i, b.Manifest.Ports[i], s)
		}
	}
	if int(prog.Globals) != b.Manifest.MemoryWords {
		return nil, fmt.Errorf("plugin: binary %q: manifest memory %d != program globals %d",
			b.Manifest.Name, b.Manifest.MemoryWords, prog.Globals)
	}
	return prog, nil
}

// Decode returns the verified program of the binary.
func (b Binary) Decode() (*vm.Program, error) {
	return vm.DecodeProgram(b.Program)
}

// Package is one installation package as pushed by the trusted server: the
// binary wrapped with the context generated for the specific vehicle
// (paper section 3.2.2).
type Package struct {
	Binary  Binary
	Context core.Context

	// prog, wire and code are what UnmarshalBinary checked: the decoded
	// program, a private copy of the bytes and the slice of it that
	// Binary.Program was set to. They stand while Binary.Program is code.
	prog       *vm.Program
	wire, code []byte
}

// Validate checks the package, including that the PIC covers exactly the
// declared ports of the binary.
func (p Package) Validate() error {
	_, err := p.Decode()
	return err
}

// Decode validates the package and returns its program. The program
// UnmarshalBinary decoded is reused, not decoded again, unless
// Binary.Program has been replaced since.
func (p Package) Decode() (*vm.Program, error) {
	prog, err := p.Binary.check(p.kept())
	if err != nil {
		return nil, err
	}
	if err := p.Context.Validate(); err != nil {
		return nil, fmt.Errorf("plugin: package %q: %v", p.Binary.Manifest.Name, err)
	}
	if len(p.Context.PIC) != len(p.Binary.Manifest.Ports) {
		return nil, fmt.Errorf("plugin: package %q: PIC assigns %d ports, binary declares %d",
			p.Binary.Manifest.Name, len(p.Context.PIC), len(p.Binary.Manifest.Ports))
	}
	for _, spec := range p.Binary.Manifest.Ports {
		if _, ok := p.Context.PIC.Lookup(spec.Name); !ok {
			return nil, fmt.Errorf("plugin: package %q: PIC misses port %q",
				p.Binary.Manifest.Name, spec.Name)
		}
	}
	if p.Binary.Manifest.External && len(p.Context.ECC) == 0 {
		return nil, fmt.Errorf("plugin: package %q: external plug-in without ECC", p.Binary.Manifest.Name)
	}
	return prog, nil
}

// kept returns the program UnmarshalBinary decoded, or nil when there is
// none or Binary.Program no longer is the slice it was decoded from.
func (p Package) kept() *vm.Program {
	if b := p.Binary.Program; len(b) == 0 || len(b) != len(p.code) || &b[0] != &p.code[0] {
		return nil
	}
	return p.prog
}

// Wire returns the package's encoding: the bytes UnmarshalBinary decoded
// (read-only, and blind to later edits of Manifest or Context) while
// Binary.Program is the slice it kept, else MarshalBinary's.
func (p Package) Wire() ([]byte, error) {
	if p.kept() != nil {
		return p.wire, nil
	}
	return p.MarshalBinary()
}

// --- wire forms -------------------------------------------------------------

func encodeManifest(e *core.Enc, m Manifest) {
	e.Str(string(m.Name))
	e.Str(m.Version)
	e.Str(m.Developer)
	e.Str(m.Description)
	e.U16(uint16(len(m.Ports)))
	for _, p := range m.Ports {
		e.Str(p.Name)
		e.U8(uint8(p.Direction))
	}
	e.U16(uint16(len(m.Requires)))
	for _, r := range m.Requires {
		e.Str(string(r))
	}
	e.U16(uint16(len(m.Conflicts)))
	for _, c := range m.Conflicts {
		e.Str(string(c))
	}
	e.U32(uint32(m.MemoryWords))
	e.U32(uint32(m.Budget))
	if m.External {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func decodeManifest(d *core.Dec) (Manifest, error) {
	var m Manifest
	m.Name = core.PluginName(d.Str())
	m.Version = d.Str()
	m.Developer = d.Str()
	m.Description = d.Str()
	// Counted loops stop at the first decode error.
	nPorts := int(d.U16())
	for i := 0; i < nPorts && d.Err() == nil; i++ {
		m.Ports = append(m.Ports, core.PluginPortSpec{
			Name:      d.Str(),
			Direction: core.Direction(d.U8()),
		})
	}
	nReq := int(d.U16())
	for i := 0; i < nReq && d.Err() == nil; i++ {
		m.Requires = append(m.Requires, core.PluginName(d.Str()))
	}
	nCon := int(d.U16())
	for i := 0; i < nCon && d.Err() == nil; i++ {
		m.Conflicts = append(m.Conflicts, core.PluginName(d.Str()))
	}
	m.MemoryWords = int(d.U32())
	m.Budget = int(d.U32())
	// Only the two canonical flag bytes decode, so an accepted package
	// re-encodes to the bytes it came from.
	switch ext := d.U8(); ext {
	case 0, 1:
		m.External = ext == 1
	default:
		return m, fmt.Errorf("plugin: manifest external flag %d is not 0 or 1", ext)
	}
	return m, nil
}

// MarshalBinary encodes the installation package for transport.
func (p Package) MarshalBinary() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx, err := p.Context.MarshalBinary()
	if err != nil {
		return nil, err
	}
	e := core.NewEnc(128 + len(p.Binary.Program) + len(ctx))
	encodeManifest(e, p.Binary.Manifest)
	e.Blob(p.Binary.Program)
	e.Blob(ctx)
	return e.Bytes(), nil
}

// UnmarshalBinary decodes and validates a package, keeping the program
// for Decode and a private copy of b, which nothing aliases, for Wire.
func (p *Package) UnmarshalBinary(b []byte) error {
	wire := append([]byte(nil), b...)
	d := core.NewDec(wire)
	m, err := decodeManifest(d)
	if err != nil {
		return err
	}
	prog := d.Blob()
	ctx := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("plugin: %d trailing bytes after package", d.Remaining())
	}
	var c core.Context
	if err := c.UnmarshalBinary(ctx); err != nil {
		return err
	}
	*p = Package{Binary: Binary{Manifest: m, Program: prog}, Context: c, wire: wire, code: prog}
	p.prog, err = p.Decode()
	return err
}
