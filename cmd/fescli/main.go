// Fescli drives the trusted server's versioned deployment-service API
// (/v1) from the shell through the typed api.Client, and can
// impersonate an external endpoint (the paper's smart phone).
//
//	fescli -server http://localhost:8080 adduser alice
//	fescli bindvehicle alice vehicle-conf.json
//	fescli upload app.json
//	fescli apps
//	fescli deploy alice VIN123 RemoteControl      (prints the operation)
//	fescli deploy -fleet alice RemoteControl VIN123 VIN124
//	fescli deploy -fleet -model modelcar-v1 alice RemoteControl
//	fescli upgrade alice VIN123 TripCounter-v1 TripCounter-v2
//	fescli upgrade -fleet -model modelcar-v1 alice TripCounter-v1 TripCounter-v2
//	fescli rollout start -waves 1,10%,all alice TripCounter-v1 TripCounter-v2
//	fescli rollout wait op-00000007
//	fescli rollout abort op-00000007
//	fescli uninstall -fleet alice RemoteControl VIN123 VIN124
//	fescli verify alice VIN123 deploy RemoteControl
//	fescli verify alice VIN123 uninstall RemoteControl
//	fescli verify alice VIN123 upgrade TripCounter-v1 TripCounter-v2
//	fescli verify alice VIN123 restore ECU2
//	fescli operations list
//	fescli operations get op-00000001
//	fescli operations wait op-00000001
//	fescli status VIN123 RemoteControl
//	fescli health                                 (readiness + recovery counters)
//	fescli statz                                  (monitoring counters since start)
//	fescli uninstall alice VIN123 RemoteControl
//	fescli restore alice VIN123 ECU2
//	fescli vehicle VIN123
//	fescli vehicles
//	fescli paperapp > app.json
//	fescli phone -listen :56789 Wheels=42 Speed=500
//
// Deploy, upgrade, uninstall and restore are asynchronous: each returns
// an operation id immediately; poll it with "operations get" or block
// on completion with "operations wait". Errors surface the API's stable
// machine-readable codes.
//
// Verify dry-runs an operation through the server's static plan
// verifier (POST /v1/verify): the plan is computed exactly as the live
// pipeline would compute it, every intermediate configuration along the
// reconfiguration path is checked, and nothing is pushed or reserved.
// The report lists the step path on success; a rejected plan prints the
// "unsafe_plan" counterexample and exits non-zero.
//
// Upgrade hot-swaps an installed app to a new version on the running
// vehicle: each plug-in is quiesced (its traffic buffered, not
// dropped), its exported state transferred into the new version, and
// health-probed — a failing probe rolls the vehicle back to the old
// version and the operation reports the stable "rollback" error code.
//
// The -fleet flag turns deploy/uninstall into a batch over many
// vehicles: explicit VINs after the app name, or — with none given —
// the user's whole fleet, optionally filtered by -model. The server
// answers with one parent operation whose children track each vehicle;
// "operations wait" on the parent blocks until the whole batch settled
// and its vehiclesSucceeded/vehiclesFailed fields carry the
// partial-failure report.
//
// The phone mode listens for the vehicle's ECM to dial in (the ECM opens
// the link using the address in the plug-in's ECC), then sends the given
// message=value pairs and prints every frame it receives. The paperapp
// command emits the paper's RemoteControl application (COM + OP with the
// model-car SW conf) as upload-ready JSON; pass an endpoint argument to
// override the phone address recorded in the ECC
// (default 127.0.0.1:56789).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/ecm"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vehicle"
)

var (
	client *api.Client
	page   api.Page
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fescli: ")
	serverURL := flag.String("server", "http://localhost:8080", "deployment-service base URL")
	flag.IntVar(&page.Size, "page-size", 0, "items per page on list commands (0 = server default)")
	flag.StringVar(&page.Token, "page-token", "", "continue a listing from this nextPageToken")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: fescli [-server URL] <adduser|bindvehicle|upload|apps|deploy|upgrade|rollout|verify|status|health|statz|uninstall|restore|operations|vehicle|vehicles|paperapp|phone> ...")
	}
	client = api.NewClient(*serverURL, nil)
	ctx := context.Background()

	switch args[0] {
	case "adduser":
		need(args, 2, "adduser <id>")
		u, err := client.CreateUser(ctx, api.CreateUserRequest{ID: core.UserID(args[1])})
		show(u, err)
	case "bindvehicle":
		need(args, 3, "bindvehicle <owner> <conf.json>")
		var conf core.VehicleConf
		readJSONFile(args[2], &conf)
		vr, err := client.BindVehicle(ctx, api.BindVehicleRequest{Owner: core.UserID(args[1]), Conf: conf})
		show(vr, err)
	case "upload":
		need(args, 2, "upload <app.json>")
		var app api.App
		readJSONFile(args[1], &app)
		ref, err := client.UploadApp(ctx, app)
		show(ref, err)
	case "apps":
		list, err := client.ListApps(ctx, page)
		show(list, err)
	case "deploy":
		fleetable("deploy", args[1:],
			func(user core.UserID, vehicle core.VehicleID, app core.AppName) (api.Operation, error) {
				return client.Deploy(ctx, api.DeployRequest{User: user, Vehicle: vehicle, App: app})
			},
			func(req api.BatchDeployRequest) (api.Operation, error) {
				return client.BatchDeploy(ctx, req)
			})
	case "uninstall":
		fleetable("uninstall", args[1:],
			func(user core.UserID, vehicle core.VehicleID, app core.AppName) (api.Operation, error) {
				return client.Uninstall(ctx, api.UninstallRequest{User: user, Vehicle: vehicle, App: app})
			},
			func(req api.BatchDeployRequest) (api.Operation, error) {
				return client.BatchUninstall(ctx, api.BatchUninstallRequest(req))
			})
	case "upgrade":
		upgrade(ctx, args[1:])
	case "rollout":
		rollout(ctx, args[1:])
	case "verify":
		verifyCmd(ctx, args[1:])
	case "restore":
		need(args, 4, "restore <user> <vehicle> <ecu>")
		op, err := client.Restore(ctx, api.RestoreRequest{
			User: core.UserID(args[1]), Vehicle: core.VehicleID(args[2]), ECU: core.ECUID(args[3]),
		})
		show(op, err)
	case "status":
		need(args, 3, "status <vehicle> <app>")
		st, err := client.Status(ctx, core.VehicleID(args[1]), core.AppName(args[2]))
		show(st, err)
	case "health":
		h, err := client.Health(ctx)
		if err == nil {
			printShardLine(h.Shard, h.Role, h.ShardEpoch)
			for _, f := range h.Replication {
				fmt.Fprintf(os.Stderr, "# follower %s: lag=%dB resyncs=%d asyncCommits=%d err=%q\n",
					f.Name, f.LagBytes, f.Resyncs, f.AsyncCommits, f.LastError)
			}
		}
		show(h, err)
	case "statz":
		st, err := client.Statz(ctx)
		if err == nil {
			printShardLine(st.Shard, st.Role, st.ShardEpoch)
			if st.JournalImageBytes > 0 || st.JournalSegmentBytes > 0 {
				fmt.Fprintf(os.Stderr, "# journal: image=%dB segment=%dB since-snapshot=%d records\n",
					st.JournalImageBytes, st.JournalSegmentBytes, st.JournalSinceSnapshot)
			}
			if st.LastSegmentShipped > 0 || st.ReplLagBytes > 0 {
				fmt.Fprintf(os.Stderr, "# replication: lag=%dB last-segment-shipped=wal-%016d async-commits=%d\n",
					st.ReplLagBytes, st.LastSegmentShipped, st.ReplAsyncCommits)
			}
		}
		show(st, err)
	case "operations":
		operations(ctx, args[1:])
	case "vehicle":
		need(args, 2, "vehicle <vin>")
		vd, err := client.GetVehicle(ctx, core.VehicleID(args[1]))
		show(vd, err)
	case "vehicles":
		list, err := client.ListVehicles(ctx, page)
		show(list, err)
	case "paperapp":
		endpoint := "127.0.0.1:56789"
		if len(args) > 1 {
			endpoint = args[1]
		}
		emitPaperApp(endpoint)
	case "phone":
		phone(args[1:])
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

// fleetable runs a deploy/uninstall command in its single-vehicle or
// -fleet batch form:
//
//	fescli <cmd> <user> <vehicle> <app>
//	fescli <cmd> -fleet [-model M] <user> <app> [vin ...]
func fleetable(cmd string, args []string,
	single func(core.UserID, core.VehicleID, core.AppName) (api.Operation, error),
	batch func(api.BatchDeployRequest) (api.Operation, error)) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fleet := fs.Bool("fleet", false, "batch over a fleet: explicit VINs, or the user's vehicles (filtered by -model)")
	model := fs.String("model", "", "with -fleet and no VINs: select only the user's vehicles of this model")
	_ = fs.Parse(args)
	rest := fs.Args()
	if !*fleet {
		if *model != "" {
			log.Fatalf("fescli %s: -model requires -fleet", cmd)
		}
		if len(rest) < 3 {
			log.Fatalf("usage: fescli %s <user> <vehicle> <app>  |  fescli %s -fleet [-model M] <user> <app> [vin ...]", cmd, cmd)
		}
		op, err := single(core.UserID(rest[0]), core.VehicleID(rest[1]), core.AppName(rest[2]))
		show(op, err)
		return
	}
	if len(rest) < 2 {
		log.Fatalf("usage: fescli %s -fleet [-model M] <user> <app> [vin ...]", cmd)
	}
	req := api.BatchDeployRequest{User: core.UserID(rest[0]), App: core.AppName(rest[1])}
	req.Vehicles, req.Selector = fleetTarget(cmd+" -fleet", *model, rest[2:])
	op, err := batch(req)
	show(op, err)
}

// upgrade runs a live in-place upgrade in its single-vehicle or -fleet
// batch form:
//
//	fescli upgrade <user> <vehicle> <fromApp> <toApp>
//	fescli upgrade -fleet [-model M] <user> <fromApp> <toApp> [vin ...]
func upgrade(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("upgrade", flag.ExitOnError)
	fleet := fs.Bool("fleet", false, "batch over a fleet: explicit VINs, or the user's vehicles (filtered by -model)")
	model := fs.String("model", "", "with -fleet and no VINs: select only the user's vehicles of this model")
	_ = fs.Parse(args)
	rest := fs.Args()
	if !*fleet {
		if *model != "" {
			log.Fatal("fescli upgrade: -model requires -fleet")
		}
		if len(rest) < 4 {
			log.Fatal("usage: fescli upgrade <user> <vehicle> <fromApp> <toApp>  |  fescli upgrade -fleet [-model M] <user> <fromApp> <toApp> [vin ...]")
		}
		op, err := client.Upgrade(ctx, api.UpgradeRequest{
			User: core.UserID(rest[0]), Vehicle: core.VehicleID(rest[1]),
			From: core.AppName(rest[2]), To: core.AppName(rest[3]),
		})
		show(op, err)
		return
	}
	if len(rest) < 3 {
		log.Fatal("usage: fescli upgrade -fleet [-model M] <user> <fromApp> <toApp> [vin ...]")
	}
	req := api.BatchUpgradeRequest{
		User: core.UserID(rest[0]), From: core.AppName(rest[1]), To: core.AppName(rest[2]),
	}
	req.Vehicles, req.Selector = fleetTarget("upgrade -fleet", *model, rest[3:])
	op, err := client.BatchUpgrade(ctx, req)
	show(op, err)
}

// fleetTarget applies the fleet-target rule of the batch commands:
// explicit VINs, or else the -model selector (an empty model selects
// all the user's vehicles), never both. cmd names the command in the
// error.
func fleetTarget(cmd, model string, vins []string) ([]core.VehicleID, *api.FleetSelector) {
	if len(vins) == 0 {
		return nil, &api.FleetSelector{Model: model}
	}
	if model != "" {
		log.Fatalf("fescli %s: -model and explicit VINs are mutually exclusive", cmd)
	}
	out := make([]core.VehicleID, len(vins))
	for i, v := range vins {
		out[i] = core.VehicleID(v)
	}
	return out, nil
}

// rollout drives progressive fleet rollouts:
//
//	fescli rollout start [-model M] [-waves 1,10%,all] [-max-failure-rate R]
//	       [-max-probe-failures N] [-max-ack-p99 MS] <user> <fromApp> <toApp> [vin ...]
//	fescli rollout abort <id>
//	fescli rollout wait <id>
//
// A rollout is an operation: start answers immediately with it, and
// "operations get" and "operations list" show it with its waves. Wait
// blocks until it reaches a terminal state, prints it and exits
// non-zero unless it succeeded (a rolled-back fleet's error carries the
// stable rollout_unhealthy or rollout_aborted code).
func rollout(ctx context.Context, args []string) {
	if len(args) == 0 {
		log.Fatal("usage: fescli rollout <start|abort ID|wait ID>")
	}
	switch args[0] {
	case "start":
		rolloutStart(ctx, args[1:])
	case "abort":
		need(args, 2, "rollout abort <id>")
		op, err := client.AbortRollout(ctx, args[1])
		show(op, err)
	case "wait":
		need(args, 2, "rollout wait <id>")
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
		defer cancel()
		op, err := client.WaitOperation(waitCtx, args[1], 200*time.Millisecond)
		show(op, err)
		if op.State != api.StateSucceeded {
			os.Exit(1)
		}
	default:
		log.Fatalf("unknown rollout command %q", args[0])
	}
}

func rolloutStart(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("rollout start", flag.ExitOnError)
	model := fs.String("model", "", "with no VINs: select only the user's vehicles of this model")
	waves := fs.String("waves", "", "comma-separated cumulative wave sizes: counts, percentages or 'all' (default 1,10%,all)")
	maxFailureRate := fs.Float64("max-failure-rate", 0, "tolerated fraction of failed upgrades per wave, in [0, 1)")
	maxProbeFailures := fs.Int("max-probe-failures", 0, "tolerated vehicle-side probe rollbacks per wave")
	maxAckP99 := fs.Float64("max-ack-p99", 0, "p99 settle-latency bound per wave in milliseconds (0 = off)")
	_ = fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 3 {
		log.Fatal("usage: fescli rollout start [-model M] [-waves 1,10%,all] <user> <fromApp> <toApp> [vin ...]")
	}
	req := api.RolloutRequest{
		User: core.UserID(rest[0]), From: core.AppName(rest[1]), To: core.AppName(rest[2]),
	}
	req.Vehicles, req.Selector = fleetTarget("rollout start", *model, rest[3:])
	if *waves != "" {
		for _, part := range strings.Split(*waves, ",") {
			part = strings.TrimSpace(part)
			switch {
			case part == "all":
				req.Waves = append(req.Waves, api.RolloutWave{Fraction: 1})
			case strings.HasSuffix(part, "%"):
				pct, err := strconv.ParseFloat(strings.TrimSuffix(part, "%"), 64)
				if err != nil {
					log.Fatalf("bad wave %q: %v", part, err)
				}
				req.Waves = append(req.Waves, api.RolloutWave{Fraction: pct / 100})
			default:
				n, err := strconv.Atoi(part)
				if err != nil {
					log.Fatalf("bad wave %q: %v", part, err)
				}
				req.Waves = append(req.Waves, api.RolloutWave{Count: n})
			}
		}
	}
	if *maxFailureRate != 0 || *maxProbeFailures != 0 || *maxAckP99 != 0 {
		req.Health = &api.RolloutHealthPolicy{
			MaxFailureRate:   *maxFailureRate,
			MaxProbeFailures: *maxProbeFailures,
			MaxAckP99Millis:  *maxAckP99,
		}
	}
	op, err := client.StartRollout(ctx, req)
	show(op, err)
}

// verifyCmd dry-runs an operation through the static plan verifier:
//
//	fescli verify <user> <vehicle> deploy <app>
//	fescli verify <user> <vehicle> uninstall <app>
//	fescli verify <user> <vehicle> upgrade <fromApp> <toApp>
//	fescli verify <user> <vehicle> restore <ecu>
//
// The verdict prints as JSON; a rejected plan exits non-zero with the
// counterexample in the report's error message.
func verifyCmd(ctx context.Context, args []string) {
	usage := "verify <user> <vehicle> <deploy|uninstall> <app>  |  fescli verify <user> <vehicle> upgrade <fromApp> <toApp>  |  fescli verify <user> <vehicle> restore <ecu>"
	if len(args) < 4 {
		log.Fatalf("usage: fescli %s", usage)
	}
	req := api.VerifyRequest{
		User:    core.UserID(args[0]),
		Vehicle: core.VehicleID(args[1]),
		Kind:    api.OperationKind(args[2]),
		App:     core.AppName(args[3]),
	}
	if req.Kind == api.OpUpgrade {
		if len(args) < 5 {
			log.Fatalf("usage: fescli %s", usage)
		}
		req.To = core.AppName(args[4])
	}
	if req.Kind == api.OpRestore {
		req.App, req.ECU = "", core.ECUID(args[3])
	}
	report, err := client.Verify(ctx, req)
	show(report, err)
	if !report.OK {
		os.Exit(1)
	}
}

// operations drives the async-operations resource: list, get, wait.
func operations(ctx context.Context, args []string) {
	if len(args) == 0 {
		log.Fatal("usage: fescli operations <list|get ID|wait ID>")
	}
	switch args[0] {
	case "list":
		list, err := client.ListOperations(ctx, page)
		show(list, err)
	case "get":
		need(args, 2, "operations get <id>")
		op, err := client.GetOperation(ctx, args[1])
		show(op, err)
	case "wait":
		need(args, 2, "operations wait <id>")
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		op, err := client.WaitOperation(waitCtx, args[1], 100*time.Millisecond)
		show(op, err)
		if op.State == api.StateFailed {
			os.Exit(1)
		}
	default:
		log.Fatalf("unknown operations command %q", args[0])
	}
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		log.Fatalf("usage: fescli %s", usage)
	}
}

func readJSONFile(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}

// printShardLine writes a one-line shard summary to stderr (keeping
// stdout pure JSON for scripts) when the server reports a shard
// identity — standalone servers leave the fields empty.
func printShardLine(shard, role string, epoch uint64) {
	if shard == "" && role == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "# shard=%s role=%s epoch=%d\n", shard, role, epoch)
}

// show prints a typed response as indented JSON, or the structured API
// error (with its stable code) and a non-zero exit.
func show(v any, err error) {
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			log.Fatalf("error [%s]: %s", apiErr.Code, apiErr.Message)
		}
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// emitPaperApp prints the paper's RemoteControl app as upload-ready JSON,
// with the ECC endpoint pointing at the given phone address.
func emitPaperApp(endpoint string) {
	com, op, err := vehicle.PaperBinaries()
	if err != nil {
		log.Fatal(err)
	}
	app := api.App{
		Name:     "RemoteControl",
		Binaries: []plugin.Binary{com, op},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{
				{Plugin: "COM", ECU: vehicle.ECU1, SWC: vehicle.SWC1,
					Connections: []api.PortConnection{
						{Port: "WheelsExt", External: &api.ExternalSpec{Endpoint: endpoint, MessageID: "Wheels"}},
						{Port: "SpeedExt", External: &api.ExternalSpec{Endpoint: endpoint, MessageID: "Speed"}},
						{Port: "WheelsFwd", RemotePlugin: "OP", RemotePort: "WheelsIn"},
						{Port: "SpeedFwd", RemotePlugin: "OP", RemotePort: "SpeedIn"},
					}},
				{Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2,
					Connections: []api.PortConnection{
						{Port: "WheelsOut", Virtual: "WheelsReq"},
						{Port: "SpeedOut", Virtual: "SpeedReq"},
					}},
			},
		}},
	}
	show(app, nil)
}

// phone runs an external endpoint: it listens for the ECM, sends the
// given message=value pairs once connected, and echoes received frames.
func phone(args []string) {
	fs := flag.NewFlagSet("phone", flag.ExitOnError)
	listen := fs.String("listen", ":56789", "address the ECM will dial (must match the ECC endpoint)")
	_ = fs.Parse(args)
	sends := fs.Args()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("phone listening on %s; waiting for the vehicle's ECM", l.Addr())
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		log.Printf("ECM connected from %s", conn.RemoteAddr())
		go func(c net.Conn) {
			for {
				id, v, err := ecm.ReadExtFrame(c)
				if err != nil {
					log.Printf("link closed: %v", err)
					return
				}
				fmt.Printf("received %s = %d\n", id, v)
			}
		}(conn)
		for _, s := range sends {
			id, valStr, ok := strings.Cut(s, "=")
			if !ok {
				log.Fatalf("bad send %q, want message=value", s)
			}
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				log.Fatalf("bad value in %q: %v", s, err)
			}
			if err := ecm.WriteExtFrame(conn, id, v); err != nil {
				log.Fatalf("send: %v", err)
			}
			log.Printf("sent %s = %d", id, v)
		}
	}
}
