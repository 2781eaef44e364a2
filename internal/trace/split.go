package trace

import (
	"math/rand"
	"sort"
)

// Split holds a train/test partition of records.
type Split struct {
	Train []Record
	Test  []Record
}

// SplitByCar partitions records so that every car's records land entirely
// in either train or test. This is the split the mesoscopic (driver-trip)
// experiments need: the test driver's history must be unseen.
func SplitByCar(records []Record, trainFrac float64, seed int64) Split {
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.8
	}
	carSet := make(map[CarID]bool)
	for _, r := range records {
		carSet[r.Car] = true
	}
	cars := make([]CarID, 0, len(carSet))
	for c := range carSet {
		cars = append(cars, c)
	}
	sort.Slice(cars, func(i, j int) bool { return cars[i] < cars[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cars), func(i, j int) { cars[i], cars[j] = cars[j], cars[i] })

	cut := int(float64(len(cars)) * trainFrac)
	trainCars := make(map[CarID]bool, cut)
	for _, c := range cars[:cut] {
		trainCars[c] = true
	}
	inTrain := make([]bool, len(records))
	nTrain := 0
	for i, r := range records {
		if trainCars[r.Car] {
			inTrain[i] = true
			nTrain++
		}
	}
	sp := Split{Train: make([]Record, 0, nTrain), Test: make([]Record, 0, len(records)-nTrain)}
	for i, r := range records {
		if inTrain[i] {
			sp.Train = append(sp.Train, r)
		} else {
			sp.Test = append(sp.Test, r)
		}
	}
	return sp
}
