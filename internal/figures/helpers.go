package figures

import (
	iperfapp "flexos/internal/apps/iperf"
	nginxapp "flexos/internal/apps/nginx"
	redisapp "flexos/internal/apps/redis"
	sqliteapp "flexos/internal/apps/sqlite"

	"flexos/internal/core"
	"flexos/internal/explore"
	"flexos/internal/scenario"
)

// throughputOf measures a configuration with the scenario and keeps
// only its throughput, the single figure Figures 5, 6 and 8 rank by.
func throughputOf(sc *scenario.Scenario) func(*explore.Config) (explore.Metrics, error) {
	return func(c *explore.Config) (explore.Metrics, error) {
		m, err := sc.Run(c.Spec(tcbLibs()))
		return explore.Metrics{Throughput: m.Throughput}, err
	}
}

// registerApps registers all four applications into a catalog.
func registerApps(cat *core.Catalog) {
	redisapp.Register(cat)
	nginxapp.Register(cat)
	sqliteapp.Register(cat)
	iperfapp.Register(cat)
}
