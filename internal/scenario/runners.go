package scenario

import (
	"fmt"
	"strconv"

	iperfapp "flexos/internal/apps/iperf"
	nginxapp "flexos/internal/apps/nginx"
	redisapp "flexos/internal/apps/redis"
	sqliteapp "flexos/internal/apps/sqlite"

	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
	"flexos/internal/ramfs"
	"flexos/internal/timesys"
	"flexos/internal/vfs"
)

// The shipped scenario library. Each scenario fixes its mix parameters
// and op count at registration so that runs are reproducible; WithOps
// derives variants.
var (
	// Redis GET/SET ratios and pipelining (redis-benchmark's -P and
	// SET-ratio knobs). SETs store fresh keys, so write-heavier mixes
	// also grow the private heap — the memory axis of the frontier.
	RedisGet100 = register(redisScenario("redis-get100", "Redis, 100% GET, no pipelining", 0, 1))
	RedisGet90  = register(redisScenario("redis-get90", "Redis, 90% GET / 10% SET", 10, 1))
	RedisGet50  = register(redisScenario("redis-get50", "Redis, 50% GET / 50% SET", 50, 1))
	RedisPipe8  = register(redisScenario("redis-pipe8", "Redis, 100% GET, pipeline depth 8", 0, 8))

	// Nginx static/keepalive mixes (wrk with and without Connection:
	// close). Fresh connections pay the accept path per request.
	NginxStatic    = register(nginxScenario("nginx-static", "Nginx static files, new connection per request", 0))
	NginxKeep75    = register(nginxScenario("nginx-keep75", "Nginx static files, 75% keep-alive", 75))
	NginxKeepalive = register(nginxScenario("nginx-keepalive", "Nginx static files, all keep-alive", 100))

	// iPerf stream counts: more concurrent streams mean more scheduler
	// polling per packet, so isolating uksched costs more.
	IPerfStream1 = register(iperfScenario("iperf-stream1", "iPerf, single stream, 1460B packets", 1, iperfBufSize))
	IPerfStream4 = register(iperfScenario("iperf-stream4", "iPerf, 4 interleaved streams", 4, iperfBufSize))
	IPerfStream8 = register(iperfScenario("iperf-stream8", "iPerf, 8 interleaved streams", 8, iperfBufSize))

	// SQLite transaction batches: INSERTs per transaction (the paper's
	// Figure 10 runs one query per transaction == batch1).
	SQLiteBatch1  = register(sqliteScenario("sqlite-batch1", "SQLite INSERTs, one query per transaction", 1))
	SQLiteBatch8  = register(sqliteScenario("sqlite-batch8", "SQLite INSERTs, 8-query transactions", 8))
	SQLiteBatch32 = register(sqliteScenario("sqlite-batch32", "SQLite INSERTs, 32-query transactions", 32))
)

const (
	redisKeys    = 64
	iperfBufSize = 1460
)

// The calls the drivers make into the images they run.
var (
	symRxEnqueue  = core.Symbol(netstack.Name, "rx_enqueue")
	symBlockPoll  = core.Symbol(oslib.SchedName, "block_poll")
	symRedisSetup = core.Symbol(redisapp.Name, "setup")
	symServeGet   = core.Symbol(redisapp.Name, "serve_get")
	symServeSet   = core.Symbol(redisapp.Name, "serve_set")
	symNginxSetup = core.Symbol(nginxapp.Name, "setup")
	symAcceptConn = core.Symbol(nginxapp.Name, "accept_conn")
	symServeReq   = core.Symbol(nginxapp.Name, "serve_req")
	symIPerfSetup = core.Symbol(iperfapp.Name, "setup")
	symRecvOnce   = core.Symbol(iperfapp.Name, "recv_once")
	symOpenDB     = core.Symbol(sqliteapp.Name, "open_db")
	symExecBatch  = core.Symbol(sqliteapp.Name, "exec_batch")
)

// nginxRequest is the request every nginx scenario replays.
var nginxRequest = []byte("GET /index.html HTTP/1.1\r\nHost: flexos\r\n\r\n")

// The catalogs the scenarios build their images from, assembled once per
// process over the shared components: each holds exactly what one
// application's images link.
var (
	redisCatalog  = catalog(netstack.Register, redisapp.Register)
	nginxCatalog  = catalog(netstack.Register, nginxapp.Register)
	iperfCatalog  = catalog(netstack.Register, iperfapp.Register)
	sqliteCatalog = catalog(timesys.Register, ramfs.Register, vfs.Register, sqliteapp.Register)
)

// catalog returns a fresh catalog of what every application image
// links — the TCB, the scheduler and the C library — plus what the
// registers add.
func catalog(registers ...func(*core.Catalog)) *core.Catalog {
	cat := core.NewCatalog()
	oslib.RegisterTCB(cat)
	oslib.RegisterSched(cat)
	libc.Register(cat)
	for _, register := range registers {
		register(cat)
	}
	return cat
}

// FullCatalog assembles every component the repository ships: the TCB,
// the scheduler, the C library, the network stack, the time subsystem,
// the filesystem pair and all four applications. Each call returns a
// fresh catalog over the shared components, so a caller may register
// its own components into it.
func FullCatalog() *core.Catalog {
	return catalog(netstack.Register, timesys.Register, ramfs.Register, vfs.Register,
		redisapp.Register, nginxapp.Register, sqliteapp.Register, iperfapp.Register)
}

// redisScenario drives GET/SET mixes with optional pipelining: setPct%
// of operations are SETs of fresh keys, and latency is sampled per
// pipeline batch of `pipe` requests.
func redisScenario(name, desc string, setPct, pipe int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "redis", comps: redisapp.Components, ops: 240,
		drv: driver{
			catalog: redisCatalog,
			completed: func(img *core.Image) uint64 {
				st := img.State(redisapp.Name).(*redisapp.State)
				return st.Hits() + st.Sets()
			},
			setup: symRedisSetup, args: core.Words(redisKeys),
			request: func(b []byte, i int) []byte {
				if mixHit(i, setPct) {
					b = strconv.AppendInt(append(b, "SET skey"...), int64(i), 10)
					b = redisapp.AppendPadded(append(b, " v"...), i, 10)
				} else {
					b = strconv.AppendInt(append(b, "GET key"...), int64(i%redisKeys), 10)
				}
				return append(b, "\r\n"...)
			},
			per: pipe,
			span: func(ctx *core.Ctx, i, n int) error {
				for j := i; j < i+n; j++ {
					sym := symServeGet
					if mixHit(j, setPct) {
						sym = symServeSet
					}
					ok, err := ctx.Call(sym, core.Args{})
					if err != nil {
						return err
					}
					if !ok.Bool() {
						_, fn := sym.Name()
						return fmt.Errorf("redis: op %d (%s) failed", j, fn)
					}
				}
				return nil
			},
			unit: 1,
		},
	}
}

// nginxScenario drives static file serving where keepPct% of requests
// reuse their connection; the rest accept a fresh one first.
func nginxScenario(name, desc string, keepPct int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "nginx", comps: nginxapp.Components, ops: 240,
		drv: driver{
			catalog: nginxCatalog,
			completed: func(img *core.Image) uint64 {
				return img.State(nginxapp.Name).(*nginxapp.State).Served()
			},
			setup:   symNginxSetup,
			request: func([]byte, int) []byte { return nginxRequest },
			per:     1,
			span: func(ctx *core.Ctx, i, _ int) error {
				if !mixHit(i, keepPct) {
					if _, err := ctx.Call(symAcceptConn, core.Args{}); err != nil {
						return err
					}
				}
				ok, err := ctx.Call(symServeReq, core.Args{})
				if err != nil {
					return err
				}
				if !ok.Bool() {
					return fmt.Errorf("nginx: request %d failed", i)
				}
				return nil
			},
			unit: 1,
		},
	}
}

// IPerfAt returns a single-stream iPerf scenario that receives into
// buffers of bufSize bytes: the receive-buffer sweep of Figure 9.
// iperf-stream1 is IPerfAt(1460). The scenario is not registered, so
// the shipped library is unchanged.
func IPerfAt(bufSize int) *Scenario {
	return iperfScenario(fmt.Sprintf("iperf-buf%d", bufSize),
		fmt.Sprintf("iPerf, single stream, %dB receive buffers", bufSize), 1, bufSize)
}

// iperfScenario streams bufSize-byte packets across `streams`
// interleaved flows: each packet demuxes by polling the other streams'
// state in the scheduler, so per-packet scheduler chatter grows with
// the count.
func iperfScenario(name, desc string, streams, bufSize int) *Scenario {
	// The stack copies each packet, so every run enqueues this one.
	packet := make([]byte, bufSize)
	return &Scenario{
		name: name, desc: desc, app: "iperf", comps: iperfapp.Components, ops: 240,
		drv: driver{
			catalog: iperfCatalog,
			completed: func(img *core.Image) uint64 {
				return img.State(iperfapp.Name).(*iperfapp.State).Received()
			},
			setup:   symIPerfSetup,
			request: func([]byte, int) []byte { return packet },
			per:     1,
			span: func(ctx *core.Ctx, i, _ int) error {
				v, err := ctx.Call(symRecvOnce, core.Words(uint64(bufSize)))
				if err != nil {
					return err
				}
				if v.Int() != bufSize {
					return fmt.Errorf("iperf: packet %d truncated to %d bytes", i, v.Int())
				}
				// Poll the other streams before switching back.
				for k := 1; k < streams; k++ {
					if _, err := ctx.Call(symBlockPoll, core.Args{}); err != nil {
						return err
					}
				}
				return nil
			},
			unit: uint64(bufSize),
		},
	}
}

// sqliteScenario runs INSERT transactions of `batch` queries each;
// latency is sampled per transaction.
func sqliteScenario(name, desc string, batch int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "sqlite", comps: sqliteapp.Components, ops: 96,
		drv: driver{
			catalog: sqliteCatalog,
			completed: func(img *core.Image) uint64 {
				return img.State(sqliteapp.Name).(*sqliteapp.State).Rows()
			},
			setup: symOpenDB,
			per:   batch,
			span: func(ctx *core.Ctx, i, n int) error {
				_, err := ctx.Call(symExecBatch, core.Words(uint64(i), uint64(n)))
				return err
			},
			unit: 1,
		},
	}
}
