package obs

// The rings' encoders, for the external lazy ≡ eager test.
var (
	EncodeRound = encodeRound
	EncodeStep  = encodeStep
)
