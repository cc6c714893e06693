package core

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the three deployment contexts of the dynamic
// component model (paper sections 3.1.2 and 3.2.2):
//
//   - PIC, the Port Initialization Context: a mapping between developer
//     chosen plug-in port names and SW-C-scope unique port ids;
//   - PLC, the Port Linking Context: the connections to establish between
//     the new plug-in ports and the PIRTE's virtual ports (or directly
//     between plug-in ports on the same SW-C);
//   - ECC, the External Connection Context: location information for
//     external resources together with the in-vehicle routing of their
//     messages.
//
// The textual syntax follows the paper's own notation, e.g. the OP plug-in
// of section 4 ships with the PLC {P0-V3, P1-V3, P2-V4, P3-V5} and the COM
// plug-in with {P0-, P1-, P2-V0.P0, P3-V0.P1}.

// PICEntry maps one developer-chosen plug-in port name to the SW-C-scope
// unique id assigned by the trusted server.
type PICEntry struct {
	Name string
	ID   PluginPortID
}

// PIC is the Port Initialization Context: the ordered set of port
// name-to-id assignments for one plug-in on one SW-C.
type PIC []PICEntry

// Lookup returns the id assigned to the named port.
func (p PIC) Lookup(name string) (PluginPortID, bool) {
	for _, e := range p {
		if e.Name == name {
			return e.ID, true
		}
	}
	return 0, false
}

// Name returns the developer name of the port with the given id.
func (p PIC) Name(id PluginPortID) (string, bool) {
	for _, e := range p {
		if e.ID == id {
			return e.Name, true
		}
	}
	return "", false
}

// IDs returns all assigned port ids in declaration order.
func (p PIC) IDs() []PluginPortID {
	ids := make([]PluginPortID, len(p))
	for i, e := range p {
		ids[i] = e.ID
	}
	return ids
}

// pairwisePIC is the largest PIC whose duplicates Validate finds by
// comparing entries pairwise; larger ones (a hostile package, say) are
// checked through maps so the cost stays linear.
const pairwisePIC = 16

// Validate checks that names are non-empty and that both names and ids are
// unique within the context, the invariant the server's id assignment must
// maintain (paper section 3.2.2). It runs on every package decode, so a
// PIC of ordinary size is checked without allocating.
func (p PIC) Validate() error {
	var names map[string]bool
	var ids map[PluginPortID]bool
	if len(p) > pairwisePIC {
		names = make(map[string]bool, len(p))
		ids = make(map[PluginPortID]bool, len(p))
	}
	for i, e := range p {
		if e.Name == "" {
			return fmt.Errorf("core: PIC entry %s has an empty port name", e.ID)
		}
		if strings.ContainsAny(e.Name, "{}:,") {
			return fmt.Errorf("core: PIC port name %q contains reserved characters", e.Name)
		}
		dupName, dupID := names[e.Name], ids[e.ID]
		if names == nil {
			for _, prev := range p[:i] {
				dupName = dupName || prev.Name == e.Name
				dupID = dupID || prev.ID == e.ID
			}
		}
		if dupName {
			return fmt.Errorf("core: PIC has duplicate port name %q", e.Name)
		}
		if dupID {
			return fmt.Errorf("core: PIC has duplicate port id %s", e.ID)
		}
		if e.ID < 0 {
			return fmt.Errorf("core: PIC port %q has negative id", e.Name)
		}
		if names != nil {
			names[e.Name] = true
			ids[e.ID] = true
		}
	}
	return nil
}

// String renders the context as "{name:P0, other:P1}".
func (p PIC) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.Name + ":" + e.ID.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ParsePIC parses the String form of a PIC.
func ParsePIC(s string) (PIC, error) {
	body, err := unbrace(s)
	if err != nil {
		return nil, fmt.Errorf("core: PIC: %v", err)
	}
	if body == "" {
		return PIC{}, nil
	}
	var pic PIC
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		name, idStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("core: PIC entry %q: want name:P<n>", part)
		}
		id, err := ParsePluginPortID(idStr)
		if err != nil {
			return nil, fmt.Errorf("core: PIC entry %q: %v", part, err)
		}
		pic = append(pic, PICEntry{Name: strings.TrimSpace(name), ID: id})
	}
	if err := pic.Validate(); err != nil {
		return nil, err
	}
	return pic, nil
}

// LinkKind classifies one PLC post.
type LinkKind uint8

const (
	// LinkNone ("P0-") leaves the plug-in port unconnected to any virtual
	// port; the PIRTE communicates with it directly. In the paper's COM
	// plug-in, the externally fed ports P0 and P1 are of this kind.
	LinkNone LinkKind = iota
	// LinkVirtual ("P3-V5") connects the plug-in port to a virtual port on
	// the same SW-C.
	LinkVirtual
	// LinkVirtualRemote ("P2-V0.P0") connects the plug-in port to a type II
	// virtual port and names the recipient plug-in port id on the remote
	// SW-C; the PIRTE attaches that id to outgoing data (paper 3.1.3).
	LinkVirtualRemote
	// LinkPeer ("P2-P5") links two plug-in ports on the same SW-C directly
	// in the PIRTE, without touching any virtual port (paper 3.1.2).
	LinkPeer
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case LinkNone:
		return "none"
	case LinkVirtual:
		return "virtual"
	case LinkVirtualRemote:
		return "virtual+remote"
	case LinkPeer:
		return "peer"
	}
	return fmt.Sprintf("LinkKind(%d)", uint8(k))
}

// PLCEntry is one post of a Port Linking Context.
type PLCEntry struct {
	Kind   LinkKind
	Plugin PluginPortID
	// Virtual is set for LinkVirtual and LinkVirtualRemote.
	Virtual VirtualPortID
	// Remote is the recipient plug-in port id on the far SW-C, set for
	// LinkVirtualRemote.
	Remote PluginPortID
	// Peer is the local partner plug-in port, set for LinkPeer.
	Peer PluginPortID
}

// String renders the post in the paper's notation.
func (e PLCEntry) String() string {
	switch e.Kind {
	case LinkNone:
		return e.Plugin.String() + "-"
	case LinkVirtual:
		return e.Plugin.String() + "-" + e.Virtual.String()
	case LinkVirtualRemote:
		return e.Plugin.String() + "-" + e.Virtual.String() + "." + e.Remote.String()
	case LinkPeer:
		return e.Plugin.String() + "-" + e.Peer.String()
	}
	return e.Plugin.String() + "-?"
}

// PLC is the Port Linking Context: the ordered list of connection posts for
// one plug-in.
type PLC []PLCEntry

// String renders the context as, e.g., "{P0-V3, P1-V3, P2-V4, P3-V5}".
func (p PLC) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Lookup returns the (first) post for the given plug-in port.
func (p PLC) Lookup(id PluginPortID) (PLCEntry, bool) {
	for _, e := range p {
		if e.Plugin == id {
			return e, true
		}
	}
	return PLCEntry{}, false
}

// Validate checks that each plug-in port appears at most once and that each
// post's fields match its kind.
func (p PLC) Validate() error {
	seen := make(map[PluginPortID]bool, len(p))
	for _, e := range p {
		if seen[e.Plugin] {
			return fmt.Errorf("core: PLC has duplicate post for %s", e.Plugin)
		}
		seen[e.Plugin] = true
		switch e.Kind {
		case LinkNone, LinkVirtual, LinkVirtualRemote:
		case LinkPeer:
			if e.Peer == e.Plugin {
				return fmt.Errorf("core: PLC post %s links a port to itself", e.Plugin)
			}
		default:
			return fmt.Errorf("core: PLC post %s has invalid kind %d", e.Plugin, e.Kind)
		}
	}
	return nil
}

// ParsePLC parses the String form of a PLC, e.g.
// "{P0-, P1-, P2-V0.P0, P3-V0.P1}".
func ParsePLC(s string) (PLC, error) {
	body, err := unbrace(s)
	if err != nil {
		return nil, fmt.Errorf("core: PLC: %v", err)
	}
	if body == "" {
		return PLC{}, nil
	}
	var plc PLC
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		left, right, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("core: PLC post %q: want P<n>-<target>", part)
		}
		plug, err := ParsePluginPortID(left)
		if err != nil {
			return nil, fmt.Errorf("core: PLC post %q: %v", part, err)
		}
		entry := PLCEntry{Plugin: plug}
		right = strings.TrimSpace(right)
		switch {
		case right == "":
			entry.Kind = LinkNone
		case strings.HasPrefix(right, "V"):
			vStr, rStr, hasRemote := strings.Cut(right, ".")
			v, err := ParseVirtualPortID(vStr)
			if err != nil {
				return nil, fmt.Errorf("core: PLC post %q: %v", part, err)
			}
			entry.Virtual = v
			if hasRemote {
				r, err := ParsePluginPortID(rStr)
				if err != nil {
					return nil, fmt.Errorf("core: PLC post %q: %v", part, err)
				}
				entry.Kind = LinkVirtualRemote
				entry.Remote = r
			} else {
				entry.Kind = LinkVirtual
			}
		case strings.HasPrefix(right, "P"):
			peer, err := ParsePluginPortID(right)
			if err != nil {
				return nil, fmt.Errorf("core: PLC post %q: %v", part, err)
			}
			entry.Kind = LinkPeer
			entry.Peer = peer
		default:
			return nil, fmt.Errorf("core: PLC post %q: unknown target %q", part, right)
		}
		plc = append(plc, entry)
	}
	if err := plc.Validate(); err != nil {
		return nil, err
	}
	return plc, nil
}

// ECCEntry is one post of an External Connection Context: the location of
// the external resource, the message id, and the internal routing
// information (recipient ECU and plug-in port). The COM plug-in of section
// 4 ships with {{111.22.33.44:56789, ECU1, 'Wheels', P0}, ...}.
type ECCEntry struct {
	// Endpoint is the external resource location, e.g. "111.22.33.44:56789".
	Endpoint string
	// ECU is the recipient ECU inside the vehicle.
	ECU ECUID
	// MessageID selects the destination port when a message arrives.
	MessageID string
	// Port is the recipient plug-in port.
	Port PluginPortID
}

// String renders "{111.22.33.44:56789, ECU1, 'Wheels', P0}".
func (e ECCEntry) String() string {
	return fmt.Sprintf("{%s, %s, '%s', %s}", e.Endpoint, e.ECU, e.MessageID, e.Port)
}

// ECC is the External Connection Context: the list of external connection
// posts shipped with a plug-in that communicates with the outside world.
type ECC []ECCEntry

// String renders "{{...}, {...}}".
func (e ECC) String() string {
	parts := make([]string, len(e))
	for i, entry := range e {
		parts[i] = entry.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Endpoints returns the distinct external endpoints in first-seen order;
// the ECM PIRTE opens one communication link per endpoint.
func (e ECC) Endpoints() []string {
	seen := make(map[string]bool)
	var out []string
	for _, entry := range e {
		if !seen[entry.Endpoint] {
			seen[entry.Endpoint] = true
			out = append(out, entry.Endpoint)
		}
	}
	return out
}

// RouteByPort returns the (first) entry whose in-vehicle destination is
// the given plug-in port, the reverse lookup used for outbound external
// messages.
func (e ECC) RouteByPort(port PluginPortID) (ECCEntry, bool) {
	for _, entry := range e {
		if entry.Port == port {
			return entry, true
		}
	}
	return ECCEntry{}, false
}

// Route returns the in-vehicle destination for the given message id.
func (e ECC) Route(messageID string) (ECCEntry, bool) {
	for _, entry := range e {
		if entry.MessageID == messageID {
			return entry, true
		}
	}
	return ECCEntry{}, false
}

// Validate checks that entries are well-formed and message ids unique.
func (e ECC) Validate() error {
	ids := make(map[string]bool, len(e))
	for _, entry := range e {
		if entry.Endpoint == "" {
			return fmt.Errorf("core: ECC entry %q has empty endpoint", entry.MessageID)
		}
		if entry.ECU == "" {
			return fmt.Errorf("core: ECC entry %q has empty ECU", entry.MessageID)
		}
		if entry.MessageID == "" {
			return fmt.Errorf("core: ECC entry for %s has empty message id", entry.Port)
		}
		if ids[entry.MessageID] {
			return fmt.Errorf("core: ECC has duplicate message id %q", entry.MessageID)
		}
		ids[entry.MessageID] = true
	}
	return nil
}

// ParseECC parses the String form of an ECC.
func ParseECC(s string) (ECC, error) {
	body, err := unbrace(s)
	if err != nil {
		return nil, fmt.Errorf("core: ECC: %v", err)
	}
	if strings.TrimSpace(body) == "" {
		return ECC{}, nil
	}
	var ecc ECC
	rest := body
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if rest[0] == ',' {
			rest = rest[1:]
			continue
		}
		if rest[0] != '{' {
			return nil, fmt.Errorf("core: ECC: expected '{' at %q", rest)
		}
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return nil, fmt.Errorf("core: ECC: unterminated entry at %q", rest)
		}
		fields := strings.Split(rest[1:end], ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("core: ECC entry %q: want 4 fields", rest[:end+1])
		}
		msgID := strings.TrimSpace(fields[2])
		msgID = strings.Trim(msgID, "'")
		port, perr := ParsePluginPortID(fields[3])
		if perr != nil {
			return nil, fmt.Errorf("core: ECC entry %q: %v", rest[:end+1], perr)
		}
		ecc = append(ecc, ECCEntry{
			Endpoint:  strings.TrimSpace(fields[0]),
			ECU:       ECUID(strings.TrimSpace(fields[1])),
			MessageID: msgID,
			Port:      port,
		})
		rest = rest[end+1:]
	}
	if err := ecc.Validate(); err != nil {
		return nil, err
	}
	return ecc, nil
}

// Context bundles the deployment contexts shipped inside one installation
// package. ECC is only present for plug-ins that communicate externally.
type Context struct {
	PIC PIC
	PLC PLC
	ECC ECC
}

// Validate checks all parts and their cross-consistency: every PLC post and
// every ECC post must refer to a port assigned in the PIC.
func (c Context) Validate() error {
	if err := c.PIC.Validate(); err != nil {
		return err
	}
	if err := c.PLC.Validate(); err != nil {
		return err
	}
	if err := c.ECC.Validate(); err != nil {
		return err
	}
	known := make(map[PluginPortID]bool, len(c.PIC))
	for _, e := range c.PIC {
		known[e.ID] = true
	}
	for _, e := range c.PLC {
		if !known[e.Plugin] {
			return fmt.Errorf("core: PLC post %s refers to a port not in the PIC", e.Plugin)
		}
		// Peer targets are SW-C-scope ids that may belong to another
		// plug-in on the same SW-C; the PIRTE resolves them at install
		// time.
	}
	for _, e := range c.ECC {
		if !known[e.Port] {
			return fmt.Errorf("core: ECC entry %q routes to a port not in the PIC", e.MessageID)
		}
	}
	return nil
}

// SortedPortNames returns the PIC port names sorted alphabetically; useful
// for deterministic reporting.
func (c Context) SortedPortNames() []string {
	names := make([]string, len(c.PIC))
	for i, e := range c.PIC {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// unbrace strips one layer of surrounding braces, tolerating whitespace.
func unbrace(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return "", fmt.Errorf("missing surrounding braces in %q", s)
	}
	return strings.TrimSpace(s[1 : len(s)-1]), nil
}
