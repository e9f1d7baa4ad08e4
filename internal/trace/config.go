package trace

// Config is the switchboard for tracing. The zero value is off.
//
//	Enabled master switch for distributed tracing (Tracer spans, wire
//	        context propagation, span shipping).
//	Sample  fraction of root traces exported to the collector; zero (the
//	        default) and one export every root. The flight recorder
//	        records every span regardless.
type Config struct {
	Enabled bool
	Sample  float64
}

// FlightRecorder is the capacity of each participant's flight ring: enough
// to hold several supersteps of spans per participant at a few hundred
// bytes total.
const FlightRecorder = 256
