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
)
