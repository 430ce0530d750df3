package figures

import (
	"flexos/internal/explore"
	"flexos/internal/oslib"
	"flexos/internal/scenario"
)

// throughputOf measures a configuration with the scenario and keeps
// only its throughput, the single figure Figures 5, 6 and 8 rank by.
func throughputOf(sc *scenario.Scenario) func(*explore.Config) (explore.Metrics, error) {
	return func(c *explore.Config) (explore.Metrics, error) {
		m, err := sc.Run(c.Spec(oslib.TCB()))
		return explore.Metrics{Throughput: m.Throughput}, err
	}
}
