// Package geo provides the geographic substrate for CAD3: geodesic math,
// road types and road-network modelling, a synthetic Shenzhen-scale network
// generator, hidden-Markov-model map matching, and roadside-unit placement
// planning.
//
// The paper's evaluation relies on OpenStreetMap extractions of Shenzhen
// (roads, traffic signs, lamp posts). Those extractions are not shipped with
// the paper, so this package regenerates statistically equivalent networks
// from the aggregate statistics the paper prints (Table V and Table VI); see
// DESIGN.md for the substitution rationale.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the great-circle
// distance computation, in meters.
const EarthRadiusMeters = 6_371_000.0

// Point is a WGS84 geographic coordinate.
type Point struct {
	Lat float64 `json:"lat"` // degrees, [-90, 90]
	Lon float64 `json:"lon"` // degrees, [-180, 180]
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies within WGS84 coordinate bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// DistanceMeters returns the great-circle (haversine) distance between two
// points in meters. This is the Dist function of Equation 4 in the paper.
func DistanceMeters(a, b Point) float64 {
	return arcMeters(haversine(a, b, math.Cos(a.Lat*degToRad)))
}

// degToRad converts degrees to radians.
const degToRad = math.Pi / 180

// haversine returns DistanceMeters' h = sin²(Δφ/2) + cos φa·cos φb·sin²(Δλ/2)
// for a and b, given cosA = cos φa. A caller measuring many points from
// one a computes cosA once, as math.Cos(a.Lat*degToRad), and gets the
// same bits DistanceMeters would.
func haversine(a, b Point, cosA float64) float64 {
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	return sinLat*sinLat + cosA*math.Cos(lat2)*sinLon*sinLon
}

// arcMeters turns a haversine h into metres. It does not decrease as h
// grows.
func arcMeters(h float64) float64 {
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by travelling distanceMeters from p
// along the given initial bearing (degrees clockwise from north). It is the
// forward geodesic problem on a sphere, used by the synthetic network
// generator to lay out road segments.
func Destination(p Point, bearingDeg, distanceMeters float64) Point {
	const radToDeg = 180 / math.Pi

	delta := distanceMeters / EarthRadiusMeters
	theta := bearingDeg * degToRad
	phi1 := p.Lat * degToRad
	lambda1 := p.Lon * degToRad

	sinPhi2 := math.Sin(phi1)*math.Cos(delta) + math.Cos(phi1)*math.Sin(delta)*math.Cos(theta)
	phi2 := math.Asin(sinPhi2)
	y := math.Sin(theta) * math.Sin(delta) * math.Cos(phi1)
	x := math.Cos(delta) - math.Sin(phi1)*sinPhi2
	lambda2 := lambda1 + math.Atan2(y, x)

	lon := math.Mod(lambda2*radToDeg+540, 360) - 180
	return Point{Lat: phi2 * radToDeg, Lon: lon}
}

// Midpoint returns the great-circle midpoint between a and b. Adequate for
// the short segments used in the synthetic network.
func Midpoint(a, b Point) Point {
	return Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
}

// BearingDeg returns the initial bearing from a to b in degrees clockwise
// from north, normalized to [0, 360).
func BearingDeg(a, b Point) float64 {
	const radToDeg = 180 / math.Pi

	phi1 := a.Lat * degToRad
	phi2 := b.Lat * degToRad
	dLambda := (b.Lon - a.Lon) * degToRad

	y := math.Sin(dLambda) * math.Cos(phi2)
	x := math.Cos(phi1)*math.Sin(phi2) - math.Sin(phi1)*math.Cos(phi2)*math.Cos(dLambda)
	deg := math.Atan2(y, x) * radToDeg
	return math.Mod(deg+360, 360)
}
