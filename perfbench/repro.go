package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
)

// reproRxDrop reproduces a known defect the benchmark's workloads are
// deliberately not shaped around (NOTES.md, "Known defect"): an
// uncoalesced burst of 200,000 Apply parcels over the loopback
// TCPFabric overruns the receiving port's 65,536-deep rx queue, and the
// overflow is dropped, visible only as parcel.rx_dropped.
func reproRxDrop() error {
	const total = 200000
	fab, err := network.NewTCPFabric(2)
	if err != nil {
		return fmt.Errorf("tcp fabric: %w", err)
	}
	rt := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 1, Fabric: fab})
	defer func() {
		rt.Shutdown()
		_ = fab.Close()
	}()
	var delivered atomic.Int64
	rt.MustRegisterAction(sinkAction, func(*runtime.Context, []byte) ([]byte, error) {
		delivered.Add(1)
		return nil, nil
	})
	args := make([]byte, pacedArgBytes)
	var sendErrs int64
	for i := 0; i < total; i++ {
		if rt.Locality(0).Apply(1, sinkAction, args) != nil {
			sendErrs++
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := rt.Locality(1).Port().Stats()
		if delivered.Load()+st.RxDropped+sendErrs >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	line, err := json.Marshal(map[string]int64{
		"sent":        total,
		"delivered":   delivered.Load(),
		"rx_dropped":  rt.Locality(1).Port().Stats().RxDropped,
		"send_errors": sendErrs,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
