package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// fleetCar is one driver on the route, with its records and the warnings
// it received counted per hop (route index).
type fleetCar struct {
	id         trace.CarID
	journey    *geo.Journey
	aggressive bool
	biasK      float64
	speed      float64 // current speed, evolves smoothly
	records    []int
	warnings   []int
}

// fleetRun is what driveFleet saw.
type fleetRun struct {
	cars      []*fleetCar
	steps     int
	handovers int64
}

// fleetConfig configures driveFleet.
type fleetConfig struct {
	vehicles           int
	aggressiveFraction float64
	step               time.Duration // telemetry period
	maxSteps           int
}

// driveFleet drives cars along route through a live cluster with one node
// per route segment until every journey completes. Each step every active
// car moves, hands over at a boundary through the cluster, and sends one
// record to its segment's node; then every node steps and the warnings the
// nodes wrote are counted per car and hop. Drivers draw their class and
// bias from rng, then their speed noise step by step.
func driveFleet(net *geo.Network, cluster *rsu.Cluster, route []geo.SegmentID, cfg fleetConfig, rng *rand.Rand) (*fleetRun, error) {
	hopOf := make(map[geo.SegmentID]int, len(route))
	producers := make([]*stream.Producer, len(route))
	consumers := make([]*stream.Consumer, len(route))
	for hop, seg := range route {
		node, err := cluster.Node(seg)
		if err != nil {
			return nil, err
		}
		hopOf[seg] = hop
		if producers[hop], err = stream.NewProducer(node.Client(), stream.TopicInData); err != nil {
			return nil, err
		}
		if consumers[hop], err = stream.NewConsumer(node.Client(), stream.TopicOutData, 0); err != nil {
			return nil, err
		}
	}

	profile := trace.DefaultSpeedProfile()
	run := &fleetRun{cars: make([]*fleetCar, 0, cfg.vehicles)}
	for i := 1; i <= cfg.vehicles; i++ {
		j, err := geo.NewJourney(net, route)
		if err != nil {
			return nil, err
		}
		aggressive := rng.Float64() < cfg.aggressiveFraction
		bias := 0.2 * rng.Float64()
		if aggressive {
			bias = 1.4 + rng.Float64()
		}
		if rng.Float64() < 0.3 {
			bias = -bias
		}
		mean, std := profile.MeanStd(net.Segment(route[0]).Type, 12, false)
		run.cars = append(run.cars, &fleetCar{
			id: trace.CarID(i), journey: j, aggressive: aggressive, biasK: bias,
			speed:   mean + bias*std,
			records: make([]int, len(route)), warnings: make([]int, len(route)),
		})
	}

	dt := cfg.step
	for step := 0; step < cfg.maxSteps; step++ {
		active := 0
		for _, c := range run.cars {
			if c.journey.Done() {
				continue
			}
			active++
			mean, std := profile.MeanStd(net.Segment(c.journey.Segment()).Type, 12, false)
			// First-order response toward the driver's habitual target,
			// bounded to ordinary acceleration so emitted accels match the
			// training distribution.
			target := mean + c.biasK*std + rng.NormFloat64()*std*0.2
			maxAccel := 1.5 * dt.Seconds() // km/h change per step
			delta := target - c.speed
			if delta > maxAccel {
				delta = maxAccel
			} else if delta < -maxAccel {
				delta = -maxAccel
			}
			prev := c.speed
			c.speed += delta
			if c.speed < 0 {
				c.speed = 0
			}
			st, err := c.journey.Advance(c.speed, dt)
			if err != nil {
				return nil, err
			}
			if st.HandoverFrom != 0 {
				if err := cluster.Handover(c.id, st.HandoverFrom, st.Segment); err != nil {
					return nil, err
				}
				run.handovers++
			}
			rec := trace.Record{
				Car: c.id, Road: st.Segment, RoadType: net.Segment(st.Segment).Type,
				Speed: c.speed, Accel: (c.speed - prev) / dt.Seconds(),
				Lat: st.Position.Lat, Lon: st.Position.Lon, Hour: 12, Day: 4,
			}
			hop := hopOf[st.Segment]
			if _, _, err := producers[hop].Send(nil, core.AppendRecord(nil, rec)); err != nil {
				return nil, err
			}
			c.records[hop]++
		}
		if _, err := cluster.StepAll(); err != nil {
			return nil, fmt.Errorf("step %d: %w", step, err)
		}
		for hop, cons := range consumers {
			if _, err := cons.PollEach(1<<10, func(m stream.Message) {
				if w, err := core.DecodeWarning(m.Value); err == nil && w.Car >= 1 && int(w.Car) <= len(run.cars) {
					run.cars[w.Car-1].warnings[hop]++
				}
			}); err != nil {
				return nil, err
			}
		}
		if active == 0 {
			run.steps = step + 1
			break
		}
	}
	return run, nil
}

// classRates compares the two driver classes over some hops of the route.
type classRates struct {
	aggressive            int     // aggressive drivers in the fleet
	aggWarned, normWarned int     // drivers of each class warned at least once
	aggRate, normRate     float64 // mean per-record warning rate per class
}

// rates returns the class comparison over the hops from on.
func (r *fleetRun) rates(from int) classRates {
	var cr classRates
	for _, c := range r.cars {
		var recs, warns int
		for h := from; h < len(c.records); h++ {
			recs += c.records[h]
			warns += c.warnings[h]
		}
		rate := 0.0
		if recs > 0 {
			rate = float64(warns) / float64(recs)
		}
		if c.aggressive {
			cr.aggressive++
			cr.aggRate += rate
			if warns > 0 {
				cr.aggWarned++
			}
		} else {
			cr.normRate += rate
			if warns > 0 {
				cr.normWarned++
			}
		}
	}
	if cr.aggressive > 0 {
		cr.aggRate /= float64(cr.aggressive)
	}
	if n := len(r.cars) - cr.aggressive; n > 0 {
		cr.normRate /= float64(n)
	}
	return cr
}
