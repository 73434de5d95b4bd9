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
	name, cmd, args := "tcss", trainMain, os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			name, cmd, args = "tcss serve", serveMain, args[1:]
		case "replay":
			name, cmd, args = "tcss replay", replayMain, args[1:]
		}
	}
	if err := cmd(args); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// trainConfig is every `tcss` flag, plus what validate resolves them to.
type trainConfig struct {
	preset, data, gran, variant, initName    string
	checkpoint, resume, savePath, saveBinary string
	storage, faultSpec                       string
	negSample                                bool
	epochs, rank, recommend, timeUnit        int
	ckEvery, ckKeep                          int
	lambda                                   float64
	seed                                     int64

	// Set by validate.
	g   tcss.Granularity
	cfg tcss.Config
}

func (c *trainConfig) flags() *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&c.preset, "preset", "", fmt.Sprintf("generate a preset dataset, one of %v", lbsn.PresetNames()))
	fs.StringVar(&c.data, "data", "", "load a dataset directory written by datagen")
	fs.StringVar(&c.gran, "granularity", "month", "time granularity: month, week or hour")
	fs.StringVar(&c.variant, "variant", "social", "head variant: social, self, none, zero-out")
	fs.StringVar(&c.initName, "init", "spectral", "initialization: spectral, random, one-hot")
	fs.BoolVar(&c.negSample, "negative-sampling", false, "use negative sampling instead of the whole-data loss")
	fs.IntVar(&c.epochs, "epochs", 0, "training epochs (0 = default)")
	fs.IntVar(&c.rank, "rank", 0, "embedding rank (0 = default 10)")
	fs.Float64Var(&c.lambda, "lambda", -1, "social head weight (-1 = default)")
	fs.Int64Var(&c.seed, "seed", 7, "seed for generation, splitting and training")
	fs.IntVar(&c.recommend, "recommend", -1, "print top-10 recommendations for this user id")
	fs.IntVar(&c.timeUnit, "time", 0, "time unit for -recommend")

	fs.StringVar(&c.checkpoint, "checkpoint", "", "write resumable training checkpoints to this file")
	fs.IntVar(&c.ckEvery, "checkpoint-every", 0, "checkpoint period in epochs (0 = final epoch only)")
	fs.IntVar(&c.ckKeep, "checkpoint-keep", 0, "rotated prior checkpoints to keep (path.1 ... path.N)")
	fs.StringVar(&c.resume, "resume", "", "resume training from a checkpoint written by -checkpoint")
	fs.StringVar(&c.savePath, "save", "", "save the trained model to this file")
	fs.StringVar(&c.saveBinary, "save-binary", "", "save the trained model in the mmap-loadable v5 binary slab format")
	fs.StringVar(&c.storage, "storage", "", "factor storage of the trained model: f64 (default), f32, int8")
	fs.StringVar(&c.faultSpec, "fault", "", "inject a crash fault for testing: crash-save=N@B kills the process B bytes into the Nth checkpoint save")
	return fs
}

// validate resolves the flags into the granularity and training config and
// rejects everything that can be rejected without touching a dataset.
func (c *trainConfig) validate() error {
	if err := checkSource(c.preset, c.data); err != nil {
		return err
	}
	var err error
	if c.g, err = parseGranularity(c.gran); err != nil {
		return err
	}
	if c.recommend >= 0 && (c.timeUnit < 0 || c.timeUnit >= c.g.Len()) {
		return fmt.Errorf("-time %d out of range (0-%d at %s granularity)", c.timeUnit, c.g.Len()-1, c.g)
	}

	c.cfg = tcss.DefaultConfig()
	c.cfg.Seed = c.seed
	c.cfg.NegSampling = c.negSample
	if c.epochs > 0 {
		c.cfg.Epochs = c.epochs
	}
	if c.rank > 0 {
		c.cfg.Rank = c.rank
	}
	if c.lambda >= 0 {
		c.cfg.Lambda = c.lambda
	}
	if err := applyVariant(&c.cfg, c.variant); err != nil {
		return err
	}
	if err := applyInit(&c.cfg, c.initName); err != nil {
		return err
	}
	if c.cfg.Storage, err = tcss.ParseStorageMode(c.storage); err != nil {
		return err
	}
	c.cfg.CheckpointPath = c.checkpoint
	c.cfg.CheckpointEvery = c.ckEvery
	c.cfg.CheckpointKeep = c.ckKeep
	c.cfg.ResumePath = c.resume
	if c.faultSpec != "" {
		if c.cfg.FS, err = parseFaultSpec(c.faultSpec); err != nil {
			return err
		}
	}
	return nil
}

func trainMain(args []string) error {
	var c trainConfig
	c.flags().Parse(args)
	if err := c.validate(); err != nil {
		return err
	}

	ds, err := loadDataset(c.preset, c.data, c.seed)
	if err != nil {
		return err
	}
	// The one check that needs the dataset, made before the expensive step.
	if c.recommend >= ds.NumUsers {
		return fmt.Errorf("user %d out of range (0-%d)", c.recommend, ds.NumUsers-1)
	}

	s := ds.Summary()
	fmt.Printf("dataset %s: users=%d pois=%d check-ins=%d density=%.4f%%\n",
		ds.Name, s.Users, s.POIs, s.CheckIns, 100*s.TensorDensityMonth)
	fmt.Printf("training TCSS (%s, init=%s, rank=%d, epochs=%d, lambda=%g)...\n",
		c.cfg.Variant, c.cfg.Init, c.cfg.Rank, c.cfg.Epochs, c.cfg.Lambda)

	rec, err := tcss.Fit(ds, c.g, c.cfg)
	if err != nil {
		return err
	}
	res := rec.Evaluate()
	fmt.Printf("held-out evaluation: Hit@10=%.4f MRR=%.4f (%d test check-ins)\n",
		res.HitAtK, res.MRR, len(rec.Test))

	if c.savePath != "" {
		if err := rec.SaveModel(c.savePath); err != nil {
			return err
		}
		fmt.Printf("model saved to %s\n", c.savePath)
	}
	if c.saveBinary != "" {
		if err := rec.SaveModelBinary(c.saveBinary); err != nil {
			return err
		}
		fmt.Printf("model saved to %s (%s storage, binary v5, %d factor bytes)\n",
			c.saveBinary, rec.Model.Mode, rec.Model.FactorBytes())
	}

	if c.recommend >= 0 {
		fmt.Printf("top-10 POIs for user %d at %s unit %d:\n", c.recommend, c.g, c.timeUnit)
		for rank, r := range rec.Recommend(c.recommend, c.timeUnit, 10) {
			p := ds.POIs[r.POI]
			fmt.Printf("  %2d. POI %-4d  %-13s (%.4f, %.4f)  score %.4f\n",
				rank+1, r.POI, p.Category, p.Loc.Lat, p.Loc.Lon, r.Score)
		}
	}
	return nil
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

// checkSource rejects anything but exactly one of -preset / -data, and an
// unknown preset name, without generating or opening anything.
func checkSource(preset, data string) error {
	switch {
	case preset != "" && data != "":
		return fmt.Errorf("use either -preset or -data, not both")
	case preset == "" && data == "":
		return fmt.Errorf("one of -preset or -data is required")
	case preset != "":
		_, err := lbsn.NewPreset(preset, 0)
		return err
	}
	return nil
}

func loadDataset(preset, data string, seed int64) (*tcss.Dataset, error) {
	if err := checkSource(preset, data); err != nil {
		return nil, err
	}
	if data != "" {
		return tcss.LoadDataset(data, data)
	}
	cfg, err := lbsn.NewPreset(preset, seed)
	if err != nil {
		return nil, err
	}
	return lbsn.Generate(cfg)
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
