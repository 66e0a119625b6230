package core

import (
	"fmt"

	"memnet/internal/fault"
)

// faultShape describes the built system to the fault generator and
// validator.
func (s *System) faultShape() fault.Shape {
	sh := fault.Shape{
		Channels: s.net.NumChannels(),
		GPUs:     len(s.gpus),
		HMCs:     len(s.hmcs),
		Vaults:   s.cfg.HMC.Vaults,
	}
	if s.fabric != nil {
		sh.PCIePorts = s.fabric.NumEndpoints()
	}
	return sh
}

// scheduleFaults resolves the configured fault schedule — explicit or
// generated from FaultRates — and arms one engine
// event per fault. An empty schedule arms nothing, so the run stays
// byte-identical to a fault-free one.
func (s *System) scheduleFaults() error {
	sched := s.cfg.Faults
	if sched.Empty() && s.cfg.FaultRates.Active() {
		sched = fault.Generate(s.cfg.FaultRates, s.faultShape())
	}
	if sched.Empty() {
		return nil
	}
	if err := sched.Validate(s.faultShape()); err != nil {
		return fmt.Errorf("core: fault schedule: %w", err)
	}
	if sched.HasKind(fault.GPUDown) {
		// GPU failures are detected by the SKE progress watchdog, which
		// then reclaims and re-queues the dead device's CTAs.
		s.rt.StartWatchdog(s.cfg.SKE.WatchdogInterval)
	}
	for i, ev := range sched.Events {
		i, ev := i, ev
		s.eng.At(ev.At, func() { s.applyFault(i, ev, sched.Seed) })
	}
	return nil
}

// applyFault injects one scheduled fault into the live system. Recovery is
// each subsystem's job: the channel protocol retransmits corrupted flits,
// routing recomputes around dead links, the SKE watchdog reclaims dead
// GPUs, and the router sink re-interleaves around dead vaults.
func (s *System) applyFault(i int, ev fault.Event, seed int64) {
	switch ev.Kind {
	case fault.Transient:
		s.net.InjectTransient(ev.Channel, ev.Attempts)
	case fault.LinkDown:
		if ev.Channel < 0 {
			// Auto-pick: fail a link whose loss keeps the network connected.
			if got := s.net.FailSurvivableChannels(seed+int64(i)*7919, 1); len(got) == 0 {
				s.fail(fmt.Errorf("core: fault %d: no survivable link left to fail", i))
			}
			return
		}
		if err := s.net.FailChannel(ev.Channel); err != nil {
			s.fail(fmt.Errorf("core: fault %d: %w", i, err))
		}
	case fault.GPUDown:
		s.gpus[ev.GPU].Kill()
	case fault.VaultDown:
		s.hmcs[ev.HMC].FailVault(ev.Vault)
	case fault.PCIeTimeout:
		if s.fabric != nil {
			s.fabric.InjectTimeout(ev.Port, ev.Attempts)
		}
	}
}

// fail records the first unrecoverable fault outcome; the phase runner
// aborts with it instead of hanging on a completion that can never fire.
func (s *System) fail(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
}

// progress sums the system's monotone activity counters — flits retired,
// PCIe transfers, HMC completions, GPU and host instruction counts. The
// phase watchdog declares a livelock when this stops advancing while
// events keep firing.
func (s *System) progress() int64 {
	p := s.net.FlitsRetired() + s.host.Stats.Instrs.Value()
	if s.fabric != nil {
		p += s.fabric.Stats.Transfers.Value()
	}
	for _, h := range s.hmcs {
		p += h.Completed()
	}
	for _, g := range s.gpus {
		p += g.Progress()
	}
	return p
}
