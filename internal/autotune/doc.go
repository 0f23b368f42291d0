// Package autotune implements Crossbow's learner auto-tuning (Algorithm 2,
// §3.4/§4.4; DESIGN.md §5): starting from one learner per GPU, it observes
// training throughput and adds learners while throughput keeps improving
// beyond a tolerance threshold, backing off once it decreases — settling
// on the learner count that saturates the hardware, which the paper shows
// coincides with the lowest time-to-accuracy (Figure 14).
//
// One walk, Online, implements the policy. Tune feeds it throughput
// measured on the simulated hardware plane (engine.New) before a run; a
// live FCFS run feeds it measured wall-clock throughput between epochs
// (DESIGN.md §9). Learner counts are additionally capped by device memory
// — each learner needs its replica, gradients and planned task buffers, so
// large models admit only a few learners per GPU (§4.5); the cap derives
// from the live memory plan of the full-scale network (nn.BuildFull,
// DESIGN.md §10).
package autotune
