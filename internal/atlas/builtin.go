package atlas

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// Measurement is one recurring traceroute measurement a probe executes.
type Measurement struct {
	// MsmID is the measurement identifier (Atlas built-ins use
	// 5001–5016 for roots and 7000-range for controllers; the simulator
	// follows that convention loosely).
	MsmID int
	// Target is the destination. For RandomTarget measurements the
	// engine picks a fresh target per execution instead.
	Target Target
	// Interval is the execution period.
	Interval time.Duration
	// RandomTarget marks the built-ins that probe two randomly selected
	// addresses every 15 minutes.
	RandomTarget bool
}

// BuiltinMeasurements returns the simulator's stand-in for the 22 IPv4
// built-in traceroute measurements (§2): 20 fixed targets — the 13 root
// name servers plus 7 Atlas infrastructure controllers — every 30
// minutes, and 2 random-target measurements every 15 minutes, yielding
// the paper's 24 traceroutes per probe per 30-minute bin.
func BuiltinMeasurements() []Measurement {
	var ms []Measurement
	// 13 root DNS servers. Addresses are synthetic stand-ins in
	// documentation-adjacent space; only path length diversity matters.
	for i := 0; i < 13; i++ {
		ms = append(ms, Measurement{
			MsmID: 5001 + i,
			Target: Target{
				Addr:     netip.AddrFrom4([4]byte{198, 41, byte(i), 4}),
				PathMs:   8 + 10*float64(i%5),
				TailHops: 4 + i%3,
			},
			Interval: 30 * time.Minute,
		})
	}
	// 7 Atlas controllers.
	for i := 0; i < 7; i++ {
		ms = append(ms, Measurement{
			MsmID: 7001 + i,
			Target: Target{
				Addr:     netip.AddrFrom4([4]byte{193, 0, byte(10 + i), 129}),
				PathMs:   15 + 12*float64(i%4),
				TailHops: 5 + i%2,
			},
			Interval: 30 * time.Minute,
		})
	}
	// 2 random-target measurements every 15 minutes.
	for i := 0; i < 2; i++ {
		ms = append(ms, Measurement{
			MsmID:        9001 + i,
			Interval:     15 * time.Minute,
			RandomTarget: true,
		})
	}
	return ms
}

// BuiltinMeasurementsV6 returns the IPv6 counterpart of the built-in
// schedule: the 13 root servers and 7 controllers over IPv6 plus two
// random-target measurements. Atlas runs both families; the paper's
// analysis uses the IPv4 set, and the IPv6 set powers this library's
// IPv6 last-mile extension (the Appendix C observation, measured on the
// delay side).
func BuiltinMeasurementsV6() []Measurement {
	var ms []Measurement
	mkAddr := func(group, host byte) netip.Addr {
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		b[2], b[3] = 0x05, 0x03
		b[4] = group
		b[15] = host
		return netip.AddrFrom16(b)
	}
	for i := 0; i < 13; i++ {
		ms = append(ms, Measurement{
			MsmID: 6001 + i,
			Target: Target{
				Addr:     mkAddr(byte(i), 0x35),
				PathMs:   8 + 10*float64(i%5),
				TailHops: 4 + i%3,
			},
			Interval: 30 * time.Minute,
		})
	}
	for i := 0; i < 7; i++ {
		ms = append(ms, Measurement{
			MsmID: 8001 + i,
			Target: Target{
				Addr:     mkAddr(byte(0x80+i), 0x81),
				PathMs:   15 + 12*float64(i%4),
				TailHops: 5 + i%2,
			},
			Interval: 30 * time.Minute,
		})
	}
	for i := 0; i < 2; i++ {
		ms = append(ms, Measurement{
			MsmID:        9101 + i,
			Interval:     15 * time.Minute,
			RandomTarget: true,
		})
	}
	return ms
}

// TraceroutesPerWindow returns how many traceroutes the measurement set
// produces per 30-minute window.
func TraceroutesPerWindow(ms []Measurement) int {
	n := 0
	for _, m := range ms {
		n += int(30 * time.Minute / m.Interval)
	}
	return n
}

// Engine executes a measurement schedule for probes over a time range.
type Engine struct {
	// Seed drives all randomness; equal seeds reproduce byte-identical
	// result streams.
	Seed uint64
	// Measurements is the schedule; nil selects BuiltinMeasurements.
	Measurements []Measurement
}

// NewEngine returns an engine running the built-in schedule.
func NewEngine(seed uint64) *Engine {
	return &Engine{Seed: seed, Measurements: BuiltinMeasurements()}
}

// randomTarget draws the random-measurement target for a probe and slot:
// an address somewhere in unicast space with a plausible path, in the
// probe's address family.
func (e *Engine) randomTarget(p *Probe, msmID int, slot uint64) Target {
	rng := netsim.DerivedRand(e.Seed, uint64(p.ID), uint64(msmID), slot)
	var addr netip.Addr
	if p.PublicAddr.Is6() {
		var b [16]byte
		b[0] = 0x20
		b[1] = byte(1 + rng.Intn(30))
		for i := 2; i < 8; i++ {
			b[i] = byte(rng.Intn(256))
		}
		b[15] = byte(1 + rng.Intn(254))
		addr = netip.AddrFrom16(b)
	} else {
		var b [4]byte
		// First octet in [1, 223] avoiding special-purpose /8s.
		for {
			b[0] = byte(1 + rng.Intn(223))
			if b[0] != 10 && b[0] != 127 && b[0] != 100 && b[0] != 172 && b[0] != 192 && b[0] != 169 {
				break
			}
		}
		b[1] = byte(rng.Intn(256))
		b[2] = byte(rng.Intn(256))
		b[3] = byte(1 + rng.Intn(254))
		addr = netip.AddrFrom4(b)
	}
	return Target{
		Addr:     addr,
		PathMs:   5 + rng.Float64()*180,
		TailHops: 3 + rng.Intn(6),
	}
}

// Run executes the schedule for probe p over [start, end), calling emit
// for every produced result in timestamp order per measurement. Offline
// windows produce no results. Run stops at the first emit error.
func (e *Engine) Run(p *Probe, start, end time.Time, emit func(*traceroute.Result) error) error {
	if p == nil {
		return errors.New("atlas: nil probe")
	}
	if !start.Before(end) {
		return errors.New("atlas: start must precede end")
	}
	ms := e.Measurements
	if ms == nil {
		ms = BuiltinMeasurements()
	}
	for _, m := range ms {
		if m.Interval <= 0 {
			return fmt.Errorf("atlas: measurement %d has no interval", m.MsmID)
		}
		// Per-(probe, measurement) phase spreads executions across the
		// interval, like Atlas spreads its built-ins.
		phase := time.Duration(netsim.MixSeed(e.Seed, uint64(p.ID), uint64(m.MsmID))%uint64(m.Interval/time.Second)) * time.Second
		for t := start.Add(phase); t.Before(end); t = t.Add(m.Interval) {
			if !p.OnlineAt(t, e.Seed) {
				continue
			}
			slot := uint64(t.Unix()) / uint64(m.Interval/time.Second)
			target := m.Target
			if m.RandomTarget {
				target = e.randomTarget(p, m.MsmID, slot)
			}
			rng := netsim.DerivedRand(e.Seed, uint64(p.ID), uint64(m.MsmID), slot, 0x7ace)
			res, err := p.Trace(m.MsmID, target, t, rng)
			if err != nil {
				return err
			}
			if err := emit(res); err != nil {
				return err
			}
		}
	}
	return nil
}
