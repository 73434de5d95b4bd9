package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tcss"
	"tcss/internal/lbsn"
	"tcss/internal/replay"
)

// replayMain implements `tcss replay`: feed a streaming drift scenario
// through a recommender's online observe path week by week, scoring each
// week's novel check-ins before folding them in (next-week prediction), and
// report the NDCG@K / recall@K trajectory split into established users and
// cold-start arrivals.
//
//	tcss replay -preset gmu-5k -weeks 6                  # generate, fit, replay in-process
//	tcss replay -preset gmu-5k -weeks 6 -compare-random  # warm vs random growth-init ablation
//	tcss replay -data ./d -drift ./d/drift.jsonl         # datagen-written base + stream
//	tcss replay -preset gmu-5k -weeks 2 -url http://127.0.0.1:8080  # drive a live serve node
func replayMain(args []string) error {
	fs := flag.NewFlagSet("tcss replay", flag.ExitOnError)
	var (
		preset = fs.String("preset", "", fmt.Sprintf("generate the base dataset from a preset, one of %v", lbsn.PresetNames()))
		data   = fs.String("data", "", "load the base dataset from a datagen directory (requires -drift)")
		drift  = fs.String("drift", "", "drift stream JSONL (from datagen -drift-weeks); generated when empty")
		gran   = fs.String("granularity", "month", "time granularity: month, week or hour")
		seed   = fs.Int64("seed", 7, "seed for generation, training and the stream")

		weeks     = fs.Int("weeks", 6, "simulated weeks to generate (ignored with -drift)")
		startWeek = fs.Int("start-week", 14, "week-of-year the generated stream starts at")
		newUsers  = fs.Float64("new-users", 3, "mean new-user arrivals per generated week")
		newPOIs   = fs.Float64("new-pois", 2, "mean POI openings per generated week")
		closeProb = fs.Float64("close-prob", 0.01, "per-POI weekly closing probability in the generated stream")

		epochs       = fs.Int("epochs", 0, "base training epochs (0 = default)")
		rank         = fs.Int("rank", 0, "embedding rank (0 = default)")
		onlineEpochs = fs.Int("online-epochs", 0, "refinement epochs per weekly fold (0 = default)")
		halfLife     = fs.Float64("half-life", 0, "check-in decay half-life in observe steps (0 = no decay)")

		topK      = fs.Int("topk", 10, "recommendation list length scored")
		coldWeeks = fs.Int("cold-weeks", 2, "weeks after arrival a user counts as cold-start")

		url           = fs.String("url", "", "replay through a live serve node's HTTP API instead of in-process")
		compareRandom = fs.Bool("compare-random", false, "also replay with random (un-warmed) growth init for comparison")
		out           = fs.String("out", "", "write the trajectory document to this JSON file")
	)
	fs.Parse(args)

	return runReplay(replayOpts{
		preset: *preset, data: *data, drift: *drift, gran: *gran, seed: *seed,
		weeks: *weeks, startWeek: *startWeek, newUsers: *newUsers, newPOIs: *newPOIs, closeProb: *closeProb,
		epochs: *epochs, rank: *rank, onlineEpochs: *onlineEpochs, halfLife: *halfLife,
		topK: *topK, coldWeeks: *coldWeeks,
		url: *url, compareRandom: *compareRandom, out: *out,
	})
}

type replayOpts struct {
	preset, data, drift, gran    string
	seed                         int64
	weeks, startWeek             int
	newUsers, newPOIs, closeProb float64
	epochs, rank, onlineEpochs   int
	halfLife                     float64
	topK, coldWeeks              int
	url                          string
	compareRandom                bool
	out                          string
}

// replayDoc is the JSON document -out writes.
type replayDoc struct {
	Bench  string `json:"bench"`
	Config struct {
		Source       string  `json:"source"`
		Granularity  string  `json:"granularity"`
		Seed         int64   `json:"seed"`
		Weeks        int     `json:"weeks"`
		Rank         int     `json:"rank"`
		Epochs       int     `json:"epochs"`
		OnlineEpochs int     `json:"online_epochs"`
		HalfLife     float64 `json:"decay_half_life,omitempty"`
		TopK         int     `json:"top_k"`
		ColdWeeks    int     `json:"cold_weeks"`
		BaseUsers    int     `json:"base_users"`
		BasePOIs     int     `json:"base_pois"`
	} `json:"config"`
	Warm   *replay.Trajectory `json:"warm"`
	Random *replay.Trajectory `json:"random,omitempty"`
}

func runReplay(o replayOpts) error {
	g, err := parseGranularity(o.gran)
	if err != nil {
		return err
	}
	if err := checkSource(o.preset, o.data); err != nil {
		return err
	}

	// Assemble the drift stream: generated from a preset, or a datagen
	// directory plus a JSONL stream file.
	var d *lbsn.Drift
	if o.data != "" {
		if o.drift == "" {
			return fmt.Errorf("-data needs -drift (the stream JSONL datagen wrote next to it)")
		}
		base, err := tcss.LoadDataset(o.data, o.data)
		if err != nil {
			return err
		}
		wks, err := lbsn.ReadWeeksJSONLFile(o.drift)
		if err != nil {
			return err
		}
		d = &lbsn.Drift{Base: base, Weeks: wks}
	} else {
		base, err := lbsn.NewPreset(o.preset, o.seed)
		if err != nil {
			return err
		}
		d, err = lbsn.GenerateDrift(lbsn.DriftConfig{
			Base:             base,
			Weeks:            o.weeks,
			StartWeek:        o.startWeek,
			NewUsersPerWeek:  o.newUsers,
			NewPOIsPerWeek:   o.newPOIs,
			CloseProbPerWeek: o.closeProb,
		})
		if err != nil {
			return err
		}
		if o.drift != "" {
			if err := lbsn.WriteWeeksJSONLFile(o.drift, d.Weeks); err != nil {
				return err
			}
		}
	}

	ocfg := tcss.DefaultOnlineConfig()
	ocfg.Seed = o.seed
	if o.onlineEpochs > 0 {
		ocfg.Epochs = o.onlineEpochs
	}
	ocfg.DecayHalfLife = o.halfLife
	rcfg := replay.Config{TopK: o.topK, ColdWeeks: o.coldWeeks}

	cfg := tcss.DefaultConfig()
	cfg.Seed = o.seed
	if o.epochs > 0 {
		cfg.Epochs = o.epochs
	}
	if o.rank > 0 {
		cfg.Rank = o.rank
	}
	fit := func() (*tcss.Recommender, error) { return tcss.Fit(d.Base, g, cfg) }

	doc := &replayDoc{Bench: "open-world-drift-replay"}
	doc.Config.Granularity = g.String()
	doc.Config.Seed = o.seed
	doc.Config.Weeks = len(d.Weeks)
	doc.Config.Rank = cfg.Rank
	doc.Config.Epochs = cfg.Epochs
	doc.Config.OnlineEpochs = ocfg.Epochs
	doc.Config.HalfLife = o.halfLife
	doc.Config.TopK = o.topK
	doc.Config.ColdWeeks = o.coldWeeks
	doc.Config.BaseUsers = d.Base.NumUsers
	doc.Config.BasePOIs = len(d.Base.POIs)
	if o.preset != "" {
		doc.Config.Source = "preset:" + o.preset
	} else {
		doc.Config.Source = "data:" + o.data
	}

	if o.url != "" {
		if o.compareRandom {
			return fmt.Errorf("-compare-random needs in-process replay (the init policy is the server's)")
		}
		fmt.Printf("replaying %d weeks through %s...\n", len(d.Weeks), o.url)
		traj, err := replay.Run(d, g, &replay.HTTPTarget{BaseURL: o.url}, rcfg)
		if err != nil {
			return err
		}
		doc.Warm = traj
		printTrajectory("serve", traj)
	} else {
		rec, err := fit()
		if err != nil {
			return err
		}
		fmt.Printf("base model: users=%d pois=%d rank=%d; replaying %d weeks (warm growth init)...\n",
			rec.Model.I, rec.Model.J, rec.Model.Rank, len(d.Weeks))
		warm, err := replay.Run(d, g, replay.NewLocalTarget(rec, ocfg), rcfg)
		if err != nil {
			return err
		}
		doc.Warm = warm
		printTrajectory("warm", warm)

		if o.compareRandom {
			rec2, err := fit()
			if err != nil {
				return err
			}
			rcfg2 := ocfg
			rcfg2.GrowHints = &tcss.GrowthHints{Random: true}
			fmt.Printf("replaying %d weeks again (random growth init)...\n", len(d.Weeks))
			random, err := replay.Run(d, g, replay.NewLocalTarget(rec2, rcfg2), rcfg)
			if err != nil {
				return err
			}
			doc.Random = random
			printTrajectory("random", random)
			fmt.Printf("cold-start NDCG@%d: warm %.4f vs random %.4f\n",
				o.topK, warm.Overall.Cold.NDCG, random.Overall.Cold.NDCG)
		}
	}

	if o.out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("trajectory written to %s\n", o.out)
	}
	return nil
}

func printTrajectory(label string, traj *replay.Trajectory) {
	fmt.Printf("%-6s  week  gen   users  pois   est(n  ndcg   rec )  cold(n  ndcg   rec )\n", label)
	for _, w := range traj.Weeks {
		fmt.Printf("%-6s  %4d  %-4d  %5d  %4d   %4d  %.3f  %.3f    %4d  %.3f  %.3f\n",
			"", w.Week, w.Generation, w.Users, w.POIs,
			w.Established.Count, w.Established.NDCG, w.Established.Recall,
			w.Cold.Count, w.Cold.NDCG, w.Cold.Recall)
	}
	o := traj.Overall
	fmt.Printf("%-6s  overall: established n=%d NDCG@%d=%.4f recall@%d=%.4f | cold n=%d NDCG@%d=%.4f recall@%d=%.4f\n",
		"", o.Established.Count, traj.TopK, o.Established.NDCG, traj.TopK, o.Established.Recall,
		o.Cold.Count, traj.TopK, o.Cold.NDCG, traj.TopK, o.Cold.Recall)
}
