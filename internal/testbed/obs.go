package testbed

import "dtr/internal/obs"

// tbSendFailed counts deliveries that found their peer gone: a dial to
// a listener already closed at teardown, or a write that failed.
var tbSendFailed = obs.NewCounter("dtr_testbed_send_failures_total")
