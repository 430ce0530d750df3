package scenario

import (
	"fmt"

	iperfapp "flexos/internal/apps/iperf"
	nginxapp "flexos/internal/apps/nginx"
	redisapp "flexos/internal/apps/redis"
	sqliteapp "flexos/internal/apps/sqlite"

	"flexos/internal/core"
	"flexos/internal/libc"
	"flexos/internal/machine"
	"flexos/internal/netstack"
	"flexos/internal/oslib"
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

// redisScenario drives GET/SET mixes with optional pipelining: setPct%
// of operations are SETs of fresh keys, and latency is sampled per
// pipeline batch of `pipe` requests.
func redisScenario(name, desc string, setPct, pipe int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "redis",
		quad: redisapp.Components4(), has4: true,
		comps: append([]string(nil), redisapp.Components...),
		ops:   240,
		run: func(s *Scenario, spec core.ImageSpec) (Metrics, error) {
			cat, st := redisapp.Catalog()
			img, err := core.Build(cat, spec)
			if err != nil {
				return Metrics{}, err
			}
			ctx, err := img.NewContext("redis-scenario", redisapp.Name)
			if err != nil {
				return Metrics{}, err
			}
			sv, err := ctx.Call(redisapp.Name, "setup", redisKeys)
			if err != nil {
				return Metrics{}, err
			}
			boot := img.Mach.Clock.Cycles()

			ops := s.ops
			sock := sv.(int)
			// Inject the whole request stream first (the NIC side), in
			// the exact order the serve loop will consume it.
			for i := 0; i < ops; i++ {
				var req string
				if mixHit(i, setPct) {
					req = fmt.Sprintf("SET skey%d v%010d\r\n", i, i)
				} else {
					req = fmt.Sprintf("GET key%d\r\n", i%redisKeys)
				}
				if _, err := ctx.Call(netstack.Name, "rx_enqueue", sock, []byte(req)); err != nil {
					return Metrics{}, err
				}
			}

			var lat machine.LatencySampler
			startCycles := img.Mach.Clock.Cycles()
			startCross := img.Crossings()
			for i := 0; i < ops; i += pipe {
				batch := pipe
				if i+batch > ops {
					batch = ops - i
				}
				err := lat.Span(&img.Mach.Clock, func() error {
					for j := i; j < i+batch; j++ {
						fn := "serve_get"
						if mixHit(j, setPct) {
							fn = "serve_set"
						}
						ok, err := ctx.Call(redisapp.Name, fn)
						if err != nil {
							return err
						}
						if ok != true {
							return fmt.Errorf("redis: op %d (%s) failed", j, fn)
						}
					}
					return nil
				})
				if err != nil {
					return Metrics{}, err
				}
			}
			if got := st.Hits() + st.Sets(); got != uint64(ops) {
				return Metrics{}, fmt.Errorf("redis: served %d ops, want %d", got, ops)
			}
			return collect(img, &lat, ops, boot, startCycles, startCross), nil
		},
	}
}

// nginxScenario drives static file serving where keepPct% of requests
// reuse their connection; the rest accept a fresh one first.
func nginxScenario(name, desc string, keepPct int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "nginx",
		quad: nginxapp.Components4(), has4: true,
		comps: append([]string(nil), nginxapp.Components...),
		ops:   240,
		run: func(s *Scenario, spec core.ImageSpec) (Metrics, error) {
			cat, st := nginxapp.Catalog()
			img, err := core.Build(cat, spec)
			if err != nil {
				return Metrics{}, err
			}
			ctx, err := img.NewContext("nginx-scenario", nginxapp.Name)
			if err != nil {
				return Metrics{}, err
			}
			sv, err := ctx.Call(nginxapp.Name, "setup")
			if err != nil {
				return Metrics{}, err
			}
			boot := img.Mach.Clock.Cycles()

			ops := s.ops
			sock := sv.(int)
			req := []byte("GET /index.html HTTP/1.1\r\nHost: flexos\r\n\r\n")
			for i := 0; i < ops; i++ {
				if _, err := ctx.Call(netstack.Name, "rx_enqueue", sock, req); err != nil {
					return Metrics{}, err
				}
			}

			var lat machine.LatencySampler
			startCycles := img.Mach.Clock.Cycles()
			startCross := img.Crossings()
			for i := 0; i < ops; i++ {
				fresh := !mixHit(i, keepPct)
				err := lat.Span(&img.Mach.Clock, func() error {
					if fresh {
						if _, err := ctx.Call(nginxapp.Name, "accept_conn"); err != nil {
							return err
						}
					}
					ok, err := ctx.Call(nginxapp.Name, "serve_req")
					if err != nil {
						return err
					}
					if ok != true {
						return fmt.Errorf("nginx: request %d failed", i)
					}
					return nil
				})
				if err != nil {
					return Metrics{}, err
				}
			}
			if st.Served() != uint64(ops) {
				return Metrics{}, fmt.Errorf("nginx: served %d requests, want %d", st.Served(), ops)
			}
			return collect(img, &lat, ops, boot, startCycles, startCross), nil
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
	return &Scenario{
		name: name, desc: desc, app: "iperf",
		quad: [4]string{iperfapp.Name, libc.Name, oslib.SchedName, netstack.Name}, has4: true,
		comps: append([]string(nil), iperfapp.Components...),
		ops:   240,
		run: func(s *Scenario, spec core.ImageSpec) (Metrics, error) {
			cat, st := iperfapp.Catalog()
			img, err := core.Build(cat, spec)
			if err != nil {
				return Metrics{}, err
			}
			ctx, err := img.NewContext("iperf-scenario", iperfapp.Name)
			if err != nil {
				return Metrics{}, err
			}
			sv, err := ctx.Call(iperfapp.Name, "setup")
			if err != nil {
				return Metrics{}, err
			}
			boot := img.Mach.Clock.Cycles()

			ops := s.ops
			sock := sv.(int)
			payload := make([]byte, bufSize)
			for i := 0; i < ops; i++ {
				if _, err := ctx.Call(netstack.Name, "rx_enqueue", sock, payload); err != nil {
					return Metrics{}, err
				}
			}

			var lat machine.LatencySampler
			startCycles := img.Mach.Clock.Cycles()
			startCross := img.Crossings()
			for i := 0; i < ops; i++ {
				err := lat.Span(&img.Mach.Clock, func() error {
					v, err := ctx.Call(iperfapp.Name, "recv_once", bufSize)
					if err != nil {
						return err
					}
					if v.(int) != bufSize {
						return fmt.Errorf("iperf: packet %d truncated to %d bytes", i, v)
					}
					// Poll the other streams before switching back.
					for k := 1; k < streams; k++ {
						if _, err := ctx.Call(oslib.SchedName, "block_poll"); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return Metrics{}, err
				}
			}
			if st.Received() != uint64(ops*bufSize) {
				return Metrics{}, fmt.Errorf("iperf: received %d bytes, want %d", st.Received(), ops*bufSize)
			}
			return collect(img, &lat, ops, boot, startCycles, startCross), nil
		},
	}
}

// sqliteScenario runs INSERT transactions of `batch` queries each;
// latency is sampled per transaction.
func sqliteScenario(name, desc string, batch int) *Scenario {
	return &Scenario{
		name: name, desc: desc, app: "sqlite",
		comps: append([]string(nil), sqliteapp.Components...),
		ops:   96,
		run: func(s *Scenario, spec core.ImageSpec) (Metrics, error) {
			cat, st := sqliteapp.Catalog()
			img, err := core.Build(cat, spec)
			if err != nil {
				return Metrics{}, err
			}
			ctx, err := img.NewContext("sqlite-scenario", sqliteapp.Name)
			if err != nil {
				return Metrics{}, err
			}
			if _, err := ctx.Call(sqliteapp.Name, "open_db"); err != nil {
				return Metrics{}, err
			}
			boot := img.Mach.Clock.Cycles()

			ops := s.ops
			var lat machine.LatencySampler
			startCycles := img.Mach.Clock.Cycles()
			startCross := img.Crossings()
			done := 0
			for done < ops {
				n := batch
				if done+n > ops {
					n = ops - done
				}
				start := done
				err := lat.Span(&img.Mach.Clock, func() error {
					_, err := ctx.Call(sqliteapp.Name, "exec_batch", start, n)
					return err
				})
				if err != nil {
					return Metrics{}, err
				}
				done += n
			}
			if st.Rows() != uint64(ops) {
				return Metrics{}, fmt.Errorf("sqlite: committed %d rows, want %d", st.Rows(), ops)
			}
			return collect(img, &lat, ops, boot, startCycles, startCross), nil
		},
	}
}
