// Command app reaches the live half of the fixture.
package main

import (
	"fmt"

	"censusfix/internal/lib"
	"censusfix/internal/live"
)

func main() {
	name, err := lib.Decode([]byte(`{"name":"x","seen":1}`))
	fmt.Println(lib.Level(2), lib.NewOptions().Size, name, err)
	fmt.Println(lib.Max(1, 2), lib.Box[int]{V: 3}.Get())
	fmt.Println(live.Path{Switched: true}.Trace())
	fmt.Println(lib.Run(&lib.Outer{}, 1))
	fmt.Println(lib.Total([]byte(`{"items":[{"Weight":2}]}`)))
}
