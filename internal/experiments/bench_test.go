package experiments

import "testing"

// BenchmarkBuildScenario is the scenario build every corridor workload
// of the benchmark pays at set-up: generate the corridor and background
// trips, derive and filter the records, split them by car and train the
// three models.
func BenchmarkBuildScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildScenario(ScenarioConfig{Cars: 250, Seed: 21}); err != nil {
			b.Fatal(err)
		}
	}
}
