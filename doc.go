// Package dynautosar reproduces the dynamic component model for federated
// AUTOSAR systems published by Ni, Kobetski and Axelsson at DAC 2014.
//
// The repository implements, from scratch and on the standard library only:
//
//   - an AUTOSAR-like substrate: an OSEK-style fixed-priority kernel over a
//     discrete-event clock (internal/osek), a CAN bus simulation
//     (internal/can), a COM stack with signal packing and large-data
//     transport (internal/com), a VFB component model (internal/vfb), an RTE
//     (internal/rte) and basic-software services (internal/bsw);
//   - the paper's contribution: plug-in software components sandboxing a
//     bytecode virtual machine (internal/vm), the Plug-in Runtime
//     Environment with its static virtual-port map, dynamic port linking
//     and live hot-swap upgrades with state transfer and rollback
//     (internal/pirte), the External Communication Manager gateway
//     (internal/ecm), and the PIC/PLC/ECC deployment contexts
//     (internal/core);
//   - the off-board trusted server with its data model, compatibility
//     checking, context generation, Web Services API and Pusher
//     (internal/server), persisted through a write-ahead journal with
//     snapshot compaction and crash recovery (internal/journal); and
//   - federated-embedded-system support with external endpoints such as the
//     paper's smart phone (internal/fes).
//
// The package itself only carries documentation and the version constant;
// see DESIGN.md for the module map and bench/ for the benchmark that times
// the paper's Figure 1-3 paths end to end.
package dynautosar

// Version identifies this reproduction build.
const Version = "1.0.0"
