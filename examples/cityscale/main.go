// Cityscale: the macroscopic feasibility study (§VI-D2, §VII-B/D,
// Tables V-VI, Figure 9's statistics). Builds the full-scale synthetic
// Shenzhen network, plans the RSU deployment, checks the DSRC channel
// budget with the Equation 5 MAC model, and prints the city-scale
// capacity arithmetic.
package main

import (
	"fmt"
	"os"

	"cad3"
	"cad3/internal/experiments"
	"cad3/internal/geo"
	"cad3/internal/netem"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cityscale:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("building the full-scale synthetic Shenzhen network (Table V statistics)...")
	net, err := cad3.BuildNetwork(cad3.NetworkConfig{Scale: 1.0, Seed: 2026})
	if err != nil {
		return err
	}
	fmt.Printf("network: %d road segments\n\n", net.SegmentCount())

	fmt.Println("Table V: RSU deployment plan (measured from the sampled network)")
	plan := geo.PlanRSUsFromNetwork(net, 0)
	fmt.Print(experiments.FormatTable5(plan))
	fmt.Printf("\npaper-statistics plan total: %d RSUs\n\n", geo.TotalRSUs(cad3.PlanRSUs()))

	fmt.Println("Table VI: co-location with existing roadside infrastructure")
	t6, err := experiments.RunTable6(0.2, 2026)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable6(t6))

	fmt.Println("\nEquation 5: DSRC channel-access budget")
	mac, err := experiments.RunMACAnalysis()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatMACRows(mac))

	ok, t, err := netem.FitsReportingPeriod(256, netem.ReportBytes, netem.MCS8)
	if err != nil {
		return err
	}
	fmt.Printf("\n256 vehicles per RSU at MCS 8: %v in one 100 ms reporting period (access time %v)\n", ok, t)

	fmt.Println("\nCity-scale capacity (peak-hour Shenzhen, 2M concurrent vehicles):")
	fmt.Print(experiments.FormatCityScale(experiments.RunCityScale(2_000_000)))
	return nil
}
