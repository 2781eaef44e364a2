package flow_test

import (
	"errors"
	"fmt"
	"time"

	"cad3/internal/flow"
)

// Example walks the full flow-control loop: a bounded gate admits
// telemetry until pressure builds, sheds it once occupancy crosses nine
// tenths of capacity (while warnings keep flowing), and hands refused
// producers a retry-after hint; draining the queue returns credits and
// reopens admission.
func Example() {
	gate := flow.NewGate(flow.GateConfig{Capacity: 4})

	// Telemetry is admitted while occupancy is under 90% of capacity.
	for i := 1; i <= 5; i++ {
		err := gate.Admit(flow.ClassTelemetry)
		fmt.Printf("telemetry %d: admitted=%v\n", i, err == nil)
	}

	// Under the same pressure a warning is never refused.
	fmt.Printf("warning: admitted=%v\n", gate.Admit(flow.ClassWarning) == nil)

	// A refused producer backs off by the gate's hint instead of retrying.
	if err := gate.Admit(flow.ClassTelemetry); errors.Is(err, flow.ErrBackpressure) {
		hint, _ := flow.RetryAfter(err)
		fmt.Printf("backpressure, retry after %v\n", hint)
	}

	// The consumer drains two messages: credits return, admission reopens.
	gate.Release(2)
	fmt.Printf("after drain: admitted=%v occupancy=%d\n",
		gate.Admit(flow.ClassTelemetry) == nil, gate.Occupancy())

	fmt.Printf("shed telemetry=%d warnings=%d\n",
		gate.Stats().Shed[flow.ClassTelemetry], gate.Stats().Shed[flow.ClassWarning])

	// Output:
	// telemetry 1: admitted=true
	// telemetry 2: admitted=true
	// telemetry 3: admitted=true
	// telemetry 4: admitted=false
	// telemetry 5: admitted=false
	// warning: admitted=true
	// backpressure, retry after 5ms
	// after drain: admitted=true occupancy=3
	// shed telemetry=3 warnings=0
}

// ExampleBatchController shows the AIMD loop that replaces the fixed
// micro-batch cap: overruns shrink the drain bound fast, saturated batches
// that finish inside the SLO grow it back cautiously.
func ExampleBatchController() {
	ctl := flow.NewBatchController(flow.BatchControllerConfig{
		Min: 32, Max: 256, Initial: 128,
		SLO: 50 * time.Millisecond, Grow: 32, Shrink: 0.5,
	})

	fmt.Println("start:", ctl.Size())
	ctl.Observe(128, 90*time.Millisecond) // overran the 50 ms SLO
	fmt.Println("after overrun:", ctl.Size())
	ctl.Observe(64, 20*time.Millisecond) // saturated, comfortably fast
	fmt.Println("after fast saturated batch:", ctl.Size())
	ctl.Observe(5, time.Millisecond) // idle batch: no evidence, no change
	fmt.Println("after idle batch:", ctl.Size())

	// Output:
	// start: 128
	// after overrun: 64
	// after fast saturated batch: 96
	// after idle batch: 96
}
