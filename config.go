package precinct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalJSON-friendly by construction: Scenario contains only plain
// values, so scenarios can be stored next to the results they produced.

// SaveScenario writes the scenario as indented JSON.
func SaveScenario(s Scenario, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("precinct: encoding scenario: %w", err)
	}
	return nil
}

// SaveScenarioFile writes the scenario to a JSON file.
func SaveScenarioFile(s Scenario, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("precinct: %w", err)
	}
	if err := SaveScenario(s, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadScenario reads a JSON scenario. Fields absent from the document
// keep the DefaultScenario values, so a config file only needs to list
// what it changes; unknown fields are rejected to catch typos, and so is
// anything but whitespace after the object.
func LoadScenario(r io.Reader) (Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Scenario{}, fmt.Errorf("precinct: reading scenario: %w", err)
	}
	s := DefaultScenario()
	if err := decodeScenario(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("precinct: decoding scenario: %w", err)
	}
	return s, nil
}

// decodeScenario decodes exactly one JSON object over s, strictly: a
// field Scenario does not have is an error, and so is a second value or
// any other non-whitespace byte after the object.
func decodeScenario(data []byte, s *Scenario) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the scenario object at offset %d", dec.InputOffset())
	}
	return nil
}

// LoadScenarioFile reads a JSON scenario from a file.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("precinct: %w", err)
	}
	defer f.Close()
	return LoadScenario(f)
}
