// Command tcss trains and evaluates the TCSS model (or one of its ablation
// variants) on a generated preset or a dataset directory, prints Hit@10 and
// MRR under the paper's protocol, and optionally prints top-N
// recommendations for a user.
//
// Usage:
//
//	tcss -preset gowalla                         # generate, train, evaluate
//	tcss -data ./data/gowalla                    # same on a saved dataset
//	tcss -preset yelp -variant self-hausdorff    # ablation variant
//	tcss -preset gowalla -recommend 12 -time 5   # top POIs for user 12, June
//	tcss -preset gowalla -checkpoint ck.json -checkpoint-every 50
//	tcss -preset gowalla -resume ck.json         # continue a checkpointed run
//	tcss -preset gowalla -storage f32 -save-binary model.bin  # compact + mmap-able
//
// The serve subcommand starts the online recommendation HTTP server instead:
//
//	tcss serve -preset gowalla -addr :8080       # train, then serve /v1/*
//	tcss serve -model model.json -preset gowalla # serve a saved model
//
// The replay subcommand evaluates open-world continuous learning by feeding
// a streaming drift scenario through the online observe path week by week:
//
//	tcss replay -preset gmu-5k -weeks 6 -compare-random -out replay.json
//	tcss replay -preset gmu-5k -weeks 2 -url http://127.0.0.1:8080
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tcss"
	"tcss/internal/fault"
	"tcss/internal/lbsn"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		replayMain(os.Args[2:])
		return
	}
	var (
		preset    = flag.String("preset", "", fmt.Sprintf("generate a preset dataset, one of %v", lbsn.PresetNames()))
		data      = flag.String("data", "", "load a dataset directory written by datagen")
		gran      = flag.String("granularity", "month", "time granularity: month, week or hour")
		variant   = flag.String("variant", "social", "head variant: social, self, none, zero-out")
		initName  = flag.String("init", "spectral", "initialization: spectral, random, one-hot")
		negSample = flag.Bool("negative-sampling", false, "use negative sampling instead of the whole-data loss")
		epochs    = flag.Int("epochs", 0, "training epochs (0 = default)")
		rank      = flag.Int("rank", 0, "embedding rank (0 = default 10)")
		lambda    = flag.Float64("lambda", -1, "social head weight (-1 = default)")
		seed      = flag.Int64("seed", 7, "seed for generation, splitting and training")
		recommend = flag.Int("recommend", -1, "print top-10 recommendations for this user id")
		timeUnit  = flag.Int("time", 0, "time unit for -recommend")

		checkpoint = flag.String("checkpoint", "", "write resumable training checkpoints to this file")
		ckEvery    = flag.Int("checkpoint-every", 0, "checkpoint period in epochs (0 = final epoch only)")
		ckKeep     = flag.Int("checkpoint-keep", 0, "rotated prior checkpoints to keep (path.1 ... path.N)")
		resume     = flag.String("resume", "", "resume training from a checkpoint written by -checkpoint")
		savePath   = flag.String("save", "", "save the trained model to this file")
		saveBinary = flag.String("save-binary", "", "save the trained model in the mmap-loadable v5 binary slab format")
		storage    = flag.String("storage", "", "factor storage of the trained model: f64 (default), f32, int8")
		faultSpec  = flag.String("fault", "", "inject a crash fault for testing: crash-save=N@B kills the process B bytes into the Nth checkpoint save")
	)
	flag.Parse()

	ds, err := loadDataset(*preset, *data, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcss:", err)
		os.Exit(1)
	}
	g, err := parseGranularity(*gran)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcss:", err)
		os.Exit(1)
	}

	cfg := tcss.DefaultConfig()
	cfg.Seed = *seed
	cfg.NegSampling = *negSample
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *rank > 0 {
		cfg.Rank = *rank
	}
	if *lambda >= 0 {
		cfg.Lambda = *lambda
	}
	if err := applyVariant(&cfg, *variant); err != nil {
		fmt.Fprintln(os.Stderr, "tcss:", err)
		os.Exit(1)
	}
	if err := applyInit(&cfg, *initName); err != nil {
		fmt.Fprintln(os.Stderr, "tcss:", err)
		os.Exit(1)
	}
	if *storage != "" {
		mode, err := tcss.ParseStorageMode(*storage)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss:", err)
			os.Exit(1)
		}
		cfg.Storage = mode
	}
	cfg.CheckpointPath = *checkpoint
	cfg.CheckpointEvery = *ckEvery
	cfg.CheckpointKeep = *ckKeep
	cfg.ResumePath = *resume
	if *faultSpec != "" {
		fs, err := parseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcss:", err)
			os.Exit(1)
		}
		cfg.FS = fs
	}

	s := ds.Summary()
	fmt.Printf("dataset %s: users=%d pois=%d check-ins=%d density=%.4f%%\n",
		ds.Name, s.Users, s.POIs, s.CheckIns, 100*s.TensorDensityMonth)
	fmt.Printf("training TCSS (%s, init=%s, rank=%d, epochs=%d, lambda=%g)...\n",
		cfg.Variant, cfg.Init, cfg.Rank, cfg.Epochs, cfg.Lambda)

	rec, err := tcss.Fit(ds, g, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcss:", err)
		os.Exit(1)
	}
	res := rec.Evaluate()
	fmt.Printf("held-out evaluation: Hit@10=%.4f MRR=%.4f (%d test check-ins)\n",
		res.HitAtK, res.MRR, len(rec.Test))

	if *savePath != "" {
		if err := rec.SaveModel(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, "tcss:", err)
			os.Exit(1)
		}
		fmt.Printf("model saved to %s\n", *savePath)
	}
	if *saveBinary != "" {
		if err := rec.SaveModelBinary(*saveBinary); err != nil {
			fmt.Fprintln(os.Stderr, "tcss:", err)
			os.Exit(1)
		}
		fmt.Printf("model saved to %s (%s storage, binary v5, %d factor bytes)\n",
			*saveBinary, rec.Model.Mode, rec.Model.FactorBytes())
	}

	if *recommend >= 0 {
		if *recommend >= ds.NumUsers {
			fmt.Fprintf(os.Stderr, "tcss: user %d out of range (0-%d)\n", *recommend, ds.NumUsers-1)
			os.Exit(1)
		}
		fmt.Printf("top-10 POIs for user %d at %s unit %d:\n", *recommend, g, *timeUnit)
		for rank, r := range rec.Recommend(*recommend, *timeUnit, 10) {
			p := ds.POIs[r.POI]
			fmt.Printf("  %2d. POI %-4d  %-13s (%.4f, %.4f)  score %.4f\n",
				rank+1, r.POI, p.Category, p.Loc.Lat, p.Loc.Lon, r.Score)
		}
	}
}

// parseFaultSpec builds the injected-crash filesystem behind the -fault
// flag. The only spec is "crash-save=N@B": simulate a power loss B bytes
// into the Nth checkpoint save — the byte prefix lands on disk and the
// process dies with exit code 137 (SIGKILL's conventional code), exactly
// what the crash-smoke harness resumes from.
func parseFaultSpec(spec string) (fault.FS, error) {
	rest, ok := strings.CutPrefix(spec, "crash-save=")
	if !ok {
		return nil, fmt.Errorf("unknown -fault spec %q (want crash-save=N@B)", spec)
	}
	nStr, bStr, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("-fault crash-save wants N@B, got %q", rest)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("-fault crash-save: bad save index %q", nStr)
	}
	b, err := strconv.ParseInt(bStr, 10, 64)
	if err != nil || b < 1 {
		return nil, fmt.Errorf("-fault crash-save: bad byte offset %q", bStr)
	}
	inj := fault.NewInjectFS(nil, fault.Plan{CrashFile: n, CrashAtByte: b})
	inj.OnCrash = func() {
		fmt.Fprintf(os.Stderr, "tcss: injected crash %d bytes into checkpoint save %d\n", b, n)
		os.Exit(137)
	}
	return inj, nil
}

func loadDataset(preset, data string, seed int64) (*tcss.Dataset, error) {
	switch {
	case preset != "" && data != "":
		return nil, fmt.Errorf("use either -preset or -data, not both")
	case preset != "":
		cfg, err := lbsn.NewPreset(preset, seed)
		if err != nil {
			return nil, err
		}
		return lbsn.Generate(cfg)
	case data != "":
		return tcss.LoadDataset(data, data)
	default:
		return nil, fmt.Errorf("one of -preset or -data is required")
	}
}

func parseGranularity(s string) (tcss.Granularity, error) {
	switch strings.ToLower(s) {
	case "month":
		return tcss.Month, nil
	case "week":
		return tcss.Week, nil
	case "hour":
		return tcss.Hour, nil
	}
	return tcss.Month, fmt.Errorf("unknown granularity %q", s)
}

func applyVariant(cfg *tcss.Config, s string) error {
	switch strings.ToLower(s) {
	case "social":
		cfg.Variant = tcss.SocialHausdorff
	case "self":
		cfg.Variant = tcss.SelfHausdorff
	case "none":
		cfg.Variant = tcss.NoHausdorff
		cfg.Lambda = 0
	case "zero-out":
		cfg.Variant = tcss.ZeroOut
		cfg.Lambda = 0
	default:
		return fmt.Errorf("unknown variant %q", s)
	}
	return nil
}

func applyInit(cfg *tcss.Config, s string) error {
	switch strings.ToLower(s) {
	case "spectral":
		cfg.Init = tcss.SpectralInit
	case "random":
		cfg.Init = tcss.RandomInit
	case "one-hot":
		cfg.Init = tcss.OneHotInit
	default:
		return fmt.Errorf("unknown init %q", s)
	}
	return nil
}
