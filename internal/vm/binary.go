package vm

import (
	"fmt"

	"dynautosar/internal/core"
)

// The binary encoding of plug-in programs: the actual "plug-in binaries"
// stored in the trusted server's APP database and shipped inside
// installation packages (paper section 3.2). The format is flat and
// CRC-protected like the rest of the wire formats.

// magic identifies encoded programs ("PVM1").
const magic = 0x50564D31

// EncodeProgram serialises a verified program.
func EncodeProgram(p *Program) ([]byte, error) {
	if err := p.Verify(); err != nil {
		return nil, err
	}
	e := core.NewEnc(64 + 5*len(p.Code))
	e.U32(magic)
	e.Str(p.Name)
	e.Str(p.Version)
	e.U16(uint16(len(p.Ports)))
	for _, d := range p.Ports {
		e.Str(d.Name)
		e.U8(uint8(d.Direction))
	}
	e.U32(uint32(p.Globals))
	e.U16(uint16(len(p.Consts)))
	for _, c := range p.Consts {
		e.Str(c)
	}
	e.U16(uint16(len(p.Handlers)))
	for _, h := range p.Handlers {
		e.U8(uint8(h.Kind))
		e.U32(uint32(h.Index))
		e.U32(uint32(h.Entry))
	}
	e.U32(uint32(len(p.Code)))
	for _, ins := range p.Code {
		e.U8(uint8(ins.Op))
		e.U32(uint32(ins.Arg))
	}
	body := e.Bytes()
	out := core.NewEnc(4 + len(body))
	out.U32(core.Checksum(body))
	return append(out.Bytes(), body...), nil
}

// DecodeProgram parses and verifies an encoded program.
func DecodeProgram(b []byte) (*Program, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("vm: encoded program too short (%d bytes)", len(b))
	}
	hd := core.NewDec(b[:4])
	sum := hd.U32()
	body := b[4:]
	if got := core.Checksum(body); got != sum {
		return nil, fmt.Errorf("vm: program checksum mismatch (got %08x want %08x)", got, sum)
	}
	d := core.NewDec(body)
	if m := d.U32(); m != magic {
		return nil, fmt.Errorf("vm: bad program magic %08x", m)
	}
	p := &Program{
		Name:    d.Str(),
		Version: d.Str(),
	}
	// Counted loops stop at the first decode error: a count is only as
	// good as the bytes behind it.
	nPorts := int(d.U16())
	for i := 0; i < nPorts && d.Err() == nil; i++ {
		p.Ports = append(p.Ports, PortDecl{
			Name:      d.Str(),
			Direction: core.Direction(d.U8()),
		})
	}
	p.Globals = int32(d.U32())
	nConsts := int(d.U16())
	for i := 0; i < nConsts && d.Err() == nil; i++ {
		p.Consts = append(p.Consts, d.Str())
	}
	nHandlers := int(d.U16())
	for i := 0; i < nHandlers && d.Err() == nil; i++ {
		p.Handlers = append(p.Handlers, Handler{
			Kind:  HandlerKind(d.U8()),
			Index: int32(d.U32()),
			Entry: int32(d.U32()),
		})
	}
	nCode := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nCode > 1<<20 {
		return nil, fmt.Errorf("vm: encoded code section of %d instructions too large", nCode)
	}
	// Each instruction takes 5 bytes: trust no count the input cannot
	// back before allocating for it.
	if nCode > d.Remaining()/5 {
		return nil, fmt.Errorf("vm: encoded code section claims %d instructions in %d bytes", nCode, d.Remaining())
	}
	p.Code = make([]Instr, 0, nCode)
	for i := 0; i < nCode; i++ {
		p.Code = append(p.Code, Instr{Op: Op(d.U8()), Arg: int32(d.U32())})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("vm: %d trailing bytes after program", d.Remaining())
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}
