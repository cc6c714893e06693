package vehicle

import (
	"dynautosar/internal/bsw"
	"dynautosar/internal/sim"
)

// CarDynamics is the hardware model of the paper's model car: a steering
// servo that applies the commanded wheel angle directly and a drive train
// whose measured speed follows the commanded speed with a first-order
// lag. The model closes the loop between the actuator channels written
// by the built-in software and the sensor channel it samples.
type CarDynamics struct {
	// wheels, speedAct and speedSense are the model's IoHwAb channels,
	// resolved once (see ChanWheels, ChanSpeedAct, ChanSpeedSense).
	wheels, speedAct, speedSense *bsw.Channel
	// Step is the update period of the model.
	Step sim.Duration
	// LagNum/LagDen give the first-order filter coefficient
	// (speed += (cmd-speed)*LagNum/LagDen per step).
	LagNum, LagDen int64

	speed int64
	// History records (time, speed) samples for tests and plots.
	History []SpeedSample
	running bool
}

// SpeedSample is one point of the speed trajectory.
type SpeedSample struct {
	At    sim.Time
	Speed int64
}

// Channel names of the model car hardware.
const (
	ChanWheels     = "Wheels"     // steering servo, degrees*10, [-300, 300]
	ChanSpeedAct   = "SpeedAct"   // commanded speed, mm/s, [0, 2000]
	ChanSpeedSense = "SpeedSense" // measured speed, mm/s
)

// NewCarDynamics registers the hardware channels on the IoHwAb and
// returns the (not yet started) model.
func NewCarDynamics(io *bsw.IoHwAb) (*CarDynamics, error) {
	if err := io.AddChannel(ChanWheels, bsw.PWM, -300, 300); err != nil {
		return nil, err
	}
	if err := io.AddChannel(ChanSpeedAct, bsw.Analog, 0, 2000); err != nil {
		return nil, err
	}
	if err := io.AddChannel(ChanSpeedSense, bsw.Analog, 0, 2000); err != nil {
		return nil, err
	}
	c := &CarDynamics{Step: 20 * sim.Millisecond, LagNum: 1, LagDen: 5}
	// The three channels were registered above; resolving them cannot fail.
	c.wheels, _ = io.Channel(ChanWheels)
	c.speedAct, _ = io.Channel(ChanSpeedAct)
	c.speedSense, _ = io.Channel(ChanSpeedSense)
	return c, nil
}

// Start begins the periodic model update on the engine.
func (c *CarDynamics) Start(eng *sim.Engine) {
	if c.running {
		return
	}
	c.running = true
	var step func()
	step = func() {
		c.speed += (c.speedAct.Read() - c.speed) * c.LagNum / c.LagDen
		c.speedSense.Set(c.speed)
		c.History = append(c.History, SpeedSample{At: eng.Now(), Speed: c.speed})
		eng.After(c.Step, step)
	}
	eng.After(c.Step, step)
}

// Speed returns the current modelled speed.
func (c *CarDynamics) Speed() int64 { return c.speed }

// WheelAngle returns the last commanded wheel angle.
func (c *CarDynamics) WheelAngle() int64 { return c.wheels.Read() }
