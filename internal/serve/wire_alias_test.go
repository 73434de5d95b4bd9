package serve

import "tcss/internal/wire"

// The wire bodies moved to internal/wire; these aliases keep the names the
// existing tests were written against, so none of their assertions changed.
type (
	recommendResponse = wire.ReadResponse
	nextResponse      = wire.ReadResponse
	observeRequest    = wire.ObserveRequest
	observeCheckIn    = wire.CheckIn
	observeNewUser    = wire.NewUser
	observePOI        = wire.POI
	observeResponse   = wire.ObserveResponse
	errorBody         = wire.Error
	healthResponse    = wire.Health
	metricsSnapshot   = wire.NodeMetrics
	metricsModel      = wire.ModelStats
)

// collectMetrics is what one scrape encodes: the live document with its
// gauges freshly filled.
func (s *Server) collectMetrics() *wire.NodeMetrics {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.fillGauges()
	return s.met
}
